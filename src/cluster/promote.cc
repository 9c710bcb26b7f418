#include "cluster/promote.hh"

#include <cstring>

#include "netlist/snl_parser.hh"
#include "netlist/verilog_parser.hh"

namespace sns::cluster {

namespace {

bool
sameBits(double a, double b)
{
    uint64_t ab;
    uint64_t bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

} // namespace

bool
samePredictionBits(const core::SnsPrediction &a,
                   const core::SnsPrediction &b)
{
    return sameBits(a.timing_ps, b.timing_ps) &&
           sameBits(a.area_um2, b.area_um2) &&
           sameBits(a.power_mw, b.power_mw) &&
           a.paths_sampled == b.paths_sampled &&
           a.critical_path == b.critical_path;
}

PromoteReport
rollingPromote(const PromoteOptions &options)
{
    PromoteReport report;

    // Step 1: the pre-promote reference. Loading the candidate runs
    // the full checkpoint + plan verification, so a corrupt candidate
    // dies here with zero workers touched.
    core::SnsPrediction reference;
    try {
        const core::SnsPredictor candidate =
            core::SnsPredictor::load(options.checkpoint_dir);
        const graphir::Graph canary =
            options.canary_format == serve::DesignFormat::Verilog
                ? netlist::parseVerilog(options.canary_source)
                : netlist::parseSnl(options.canary_source);
        const graphir::Graph *graphs[] = {&canary};
        reference = candidate.predictBatch(graphs).at(0);
    } catch (const std::exception &e) {
        report.error = std::string("candidate rejected before "
                                   "rollout: ") +
                       e.what();
        report.log.push_back(report.error);
        return report;
    }
    report.log.push_back("candidate verified locally; reference "
                         "canary prediction computed");

    // Step 2/3: walk the workers. Sequential — at most one worker is
    // ever staged-but-unverified.
    for (const WorkerAddress &address : options.workers) {
        const std::string name = address.display();
        try {
            serve::Client client =
                serve::Client::connect(address, options.connect_retry);
            client.hello();
            const std::string reload_error =
                client.reload(options.checkpoint_dir);
            if (!reload_error.empty()) {
                report.error = name + ": RELOAD failed (" +
                               reload_error +
                               "); rollout aborted, worker keeps "
                               "serving the old model";
                report.log.push_back(report.error);
                return report;
            }
            // The first post-RELOAD batch is the atomic cutover, so
            // this canary is the first answer off the new model.
            const serve::PredictReply canary = client.predict(
                options.canary_source, options.canary_format);
            if (canary.status != serve::Status::Ok) {
                report.error = name + ": canary request failed (" +
                               canary.message + "); rollout aborted";
                report.log.push_back(report.error);
                return report;
            }
            if (!samePredictionBits(canary.prediction, reference)) {
                report.error =
                    name + ": canary reply differs bitwise from the "
                           "verified candidate; rollout aborted — "
                           "remaining workers stay on the old model";
                report.log.push_back(report.error);
                return report;
            }
        } catch (const serve::ProtocolError &e) {
            report.error = name + ": " + e.what() +
                           "; rollout aborted";
            report.log.push_back(report.error);
            return report;
        }
        ++report.workers_promoted;
        report.log.push_back(name + ": promoted (canary bitwise-ok, " +
                             std::to_string(report.workers_promoted) +
                             "/" +
                             std::to_string(options.workers.size()) +
                             ")");
    }
    report.ok = true;
    return report;
}

} // namespace sns::cluster
