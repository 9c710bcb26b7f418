#include "fixtures.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "core/evaluation.hh"
#include "core/trainer.hh"
#include "graphir/vocabulary.hh"
#include "obs/metrics.hh"
#include "par/thread_pool.hh"
#include "plan/runtime.hh"
#include "sampler/path_sampler.hh"
#include "synth/synthesizer.hh"
#include "tensor/autograd.hh"
#include "tensor/gemm.hh"
#include "tensor/qgemm.hh"
#include "trace.hh"
#include "util/rng.hh"

namespace snsbench {

using namespace sns;

uint64_t
mixSeed(uint64_t a, uint64_t b)
{
    uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
chainDesign(uint64_t seed, uint64_t index, int chains, int depth)
{
    static const char *const kOps[] = {"and", "or", "xor", "add", "mul"};
    static const int kWidths[] = {8, 16, 32, 64};
    uint64_t state = mixSeed(seed, index);
    auto next = [&state] {
        state = mixSeed(state, 0x5eed);
        return state;
    };
    auto pick = [&next](const auto &table) {
        return table[next() % std::size(table)];
    };

    std::ostringstream out;
    out << "design chain_" << seed << "_" << index << "\n";
    for (int c = 0; c < chains; ++c) {
        out << "input  x" << c << " " << pick(kWidths) << "\n";
        out << "reg    k" << c << " " << pick(kWidths) << "\n";
        int width = 0;
        for (int d = 0; d < depth; ++d) {
            width = pick(kWidths);
            out << "node   n" << c << "_" << d << " " << pick(kOps) << " "
                << width << " ";
            if (d == 0)
                out << "x" << c;
            else
                out << "n" << c << "_" << d - 1;
            out << " k" << c << "\n";
        }
        out << "reg    r" << c << " " << width << " n" << c << "_"
            << depth - 1 << "\n";
        out << "output y" << c << " " << width << " r" << c << "\n";
    }
    return out.str();
}

std::string
firDesign(int variant, int edited, int edit)
{
    constexpr int kModules = 12;
    std::ostringstream out;
    out << "design editloop" << variant << "\n";
    for (int m = 0; m < kModules; ++m) {
        int taps = 3 + m % 3;
        int width = 8 + 2 * ((m + variant) % 5);
        if (m == edited) {
            taps = 3 + edit % 4;
            width = 6 + 2 * (edit % 12);
        }
        const int acc = 2 * width;
        out << "module fir" << m << "\n";
        out << "input  x" << m << " " << width << "\n";
        for (int t = 0; t < taps; ++t)
            out << "reg    c" << m << "_" << t << " " << width << "\n";
        for (int t = 0; t < taps; ++t)
            out << "node   p" << m << "_" << t << " mul " << acc << " x"
                << m << " c" << m << "_" << t << "\n";
        out << "reg    z" << m << "_0 " << acc << " p" << m << "_0\n";
        for (int t = 1; t < taps; ++t) {
            out << "node   s" << m << "_" << t << " add " << acc << " p"
                << m << "_" << t << " z" << m << "_" << t - 1 << "\n";
            out << "reg    z" << m << "_" << t << " " << acc << " s" << m
                << "_" << t << "\n";
        }
        out << "output y" << m << " " << acc << " z" << m << "_"
            << taps - 1 << "\n";
    }
    return out.str();
}

EvalSet
buildEvalSet()
{
    const synth::Synthesizer oracle{synth::SynthesisOptions{}};
    EvalSet set{core::HardwareDesignDataset::build(
                    designs::DesignLibrary::smokeSet(), oracle),
                {},
                {}};
    std::tie(set.train_idx, set.test_idx) =
        set.dataset.splitByBase(0.5, 3);
    return set;
}

std::vector<const graphir::Graph *>
trainGraphs(const EvalSet &set)
{
    std::vector<const graphir::Graph *> graphs;
    for (const size_t idx : set.train_idx)
        graphs.push_back(&set.dataset.records()[idx].graph);
    return graphs;
}

void
trainServingModel(const EvalSet &set, const std::string &directory)
{
    core::TrainerConfig config = core::TrainerConfig::fast();
    config.model = core::CircuitformerConfig(); // Table 2
    config.circuitformer_epochs = 2;
    config.seed = 7;
    obs::Registry registry; // keep training counters out of the servers'
    config.registry = &registry;
    const synth::Synthesizer oracle{synth::SynthesisOptions{}};
    core::SnsTrainer trainer(config);
    trainer.train(set.dataset, set.train_idx, oracle).save(directory);
}

namespace {

core::EvaluationResult
evaluate(const core::SnsPredictor &predictor, const EvalSet &set,
         core::Precision precision)
{
    std::vector<const graphir::Graph *> graphs;
    for (const size_t idx : set.test_idx)
        graphs.push_back(&set.dataset.records()[idx].graph);
    core::PredictOptions options;
    options.precision = precision;
    const auto preds = predictor.predictBatch(graphs, options);
    std::vector<core::DesignEval> evals;
    for (size_t i = 0; i < graphs.size(); ++i) {
        const auto &record = set.dataset.records()[set.test_idx[i]];
        core::DesignEval eval;
        eval.name = record.name;
        eval.true_timing_ps = record.truth.timing_ps;
        eval.true_area_um2 = record.truth.area_um2;
        eval.true_power_mw = record.truth.power_mw;
        eval.pred_timing_ps = preds[i].timing_ps;
        eval.pred_area_um2 = preds[i].area_um2;
        eval.pred_power_mw = preds[i].power_mw;
        evals.push_back(std::move(eval));
    }
    return core::summarizeEvals(std::move(evals));
}

} // namespace

void
reportAccuracy(Report &report, const core::SnsPredictor &predictor,
               const EvalSet &set, core::Precision precision)
{
    const auto result = evaluate(predictor, set, precision);
    report.add("maep_timing", "%", result.timing.maep);
    report.add("maep_area", "%", result.area.maep);
    report.add("maep_power", "%", result.power.maep);
    report.add("rrse_mean", "ratio",
               (result.timing.rrse + result.area.rrse + result.power.rrse) /
                   3.0);
    if (predictor.quantized()) {
        const auto fp64 = evaluate(predictor, set, core::Precision::Fp64);
        const auto int8 = evaluate(predictor, set, core::Precision::Int8);
        report.add("eval.int8_delta_pp", "pp",
                   std::max({int8.timing.maep - fp64.timing.maep,
                             int8.area.maep - fp64.area.maep,
                             int8.power.maep - fp64.power.maep}));
    }
}

void
warmUp(const core::SnsPredictor &predictor,
       std::span<const graphir::Graph *const> graphs,
       const core::PredictOptions &options)
{
    for (int pass = 0; pass < 2; ++pass)
        predictor.predictBatch(graphs, options);
}

std::vector<const graphir::Graph *>
pointers(const std::vector<graphir::Graph> &graphs)
{
    std::vector<const graphir::Graph *> out;
    out.reserve(graphs.size());
    for (const auto &graph : graphs)
        out.push_back(&graph);
    return out;
}

namespace {

/** One padded [rows, time] batch of token ids, as the plan takes it. */
struct PackedBatch
{
    std::vector<int> ids;
    std::vector<int> lengths;
    int rows = 0;
    int time = 1;
};

/** The padded layout Circuitformer::predict feeds the plan (pad id
 * fill, lengths capped at max_positions). */
PackedBatch
packBatch(const std::vector<const std::vector<graphir::TokenId> *> &paths,
          int max_positions)
{
    PackedBatch out;
    out.rows = static_cast<int>(paths.size());
    out.lengths.assign(out.rows, 0);
    for (int b = 0; b < out.rows; ++b) {
        out.lengths[b] =
            std::min<int>(max_positions, static_cast<int>(paths[b]->size()));
        out.time = std::max(out.time, out.lengths[b]);
    }
    out.ids.assign(static_cast<size_t>(out.rows) * out.time,
                   graphir::Vocabulary::instance().padId());
    for (int b = 0; b < out.rows; ++b) {
        for (int t = 0; t < out.lengths[b]; ++t)
            out.ids[static_cast<size_t>(b) * out.time + t] = (*paths[b])[t];
    }
    return out;
}

} // namespace

std::vector<core::SnsPrediction>
tracedPredict(const core::SnsPredictor &predictor,
              std::span<const graphir::Graph *const> graphs,
              const core::PredictOptions &options, uint64_t request_base,
              TracedCounts &counts)
{
    Span batch_span("predict.batch", request_base);
    const uint64_t parent = batch_span.id();
    const core::Circuitformer &model = predictor.circuitformer();
    const core::Precision tier = options.precision;
    const plan::CompiledPlan *plan = tier == core::Precision::Int8
                                         ? model.boundQuantPlan().get()
                                         : model.boundPlan().get();
    const int max_positions = model.config().encoder.max_positions;
    if (options.cache != nullptr)
        options.cache->bindModel(predictor.predictionFingerprint(tier));

    std::vector<core::SnsPrediction> out(graphs.size());
    std::atomic<uint64_t> paths_total{0};
    std::atomic<uint64_t> tokens_total{0};
    std::atomic<uint64_t> lookups_total{0};
    par::ScopedThreads scoped_threads(options.threads);
    par::parallelFor(graphs.size(), [&](size_t begin, size_t end) {
        tensor::NoGradGuard no_grad;
        for (size_t i = begin; i < end; ++i) {
            const graphir::Graph &graph = *graphs[i];
            Span design_span("predict.design", request_base + i, parent);
            std::vector<sampler::SampledPath> sampled;
            {
                Span span("sampler.sample", request_base + i);
                sampled = sampler::PathSampler(predictor.samplerOptions())
                              .sample(graph);
            }
            core::SnsPrediction &prediction = out[i];
            prediction.paths_sampled = sampled.size();
            if (sampled.empty())
                continue;
            std::vector<std::vector<graphir::TokenId>> token_paths;
            token_paths.reserve(sampled.size());
            uint64_t tokens = 0;
            for (const auto &path : sampled) {
                token_paths.push_back(path.tokens);
                tokens += path.tokens.size();
            }
            paths_total += sampled.size();
            tokens_total += tokens;

            // Which paths need the model: every one without a cache,
            // the distinct misses with one.
            std::vector<core::PathPrediction> preds(token_paths.size());
            std::vector<size_t> assign(token_paths.size());
            std::vector<char> hit(token_paths.size(), 0);
            std::vector<std::vector<graphir::TokenId>> misses;
            if (options.cache != nullptr) {
                Span span("cache.probe", request_base + i);
                std::unordered_map<uint64_t, std::vector<size_t>> pending;
                for (size_t j = 0; j < token_paths.size(); ++j) {
                    if (options.cache->lookup(token_paths[j], preds[j])) {
                        hit[j] = 1;
                        continue;
                    }
                    auto &slots = pending[perf::hashTokens(token_paths[j])];
                    size_t slot = misses.size();
                    for (const size_t candidate : slots) {
                        if (misses[candidate] == token_paths[j]) {
                            slot = candidate;
                            break;
                        }
                    }
                    if (slot == misses.size()) {
                        slots.push_back(slot);
                        misses.push_back(token_paths[j]);
                    }
                    assign[j] = slot;
                }
                lookups_total += token_paths.size();
            } else {
                misses = token_paths;
                for (size_t j = 0; j < token_paths.size(); ++j)
                    assign[j] = j;
            }

            if (!misses.empty()) {
                std::vector<core::PathPrediction> miss_preds;
                {
                    Span span("core.model", request_base + i);
                    miss_preds =
                        model.predict(misses, options.batch_size, tier);
                }
                // The same padded batches once more through the bound
                // plan alone, packed before the span opens: plan.run's
                // share of core.model.
                if (plan != nullptr && plan::planEnabled()) {
                    const size_t stride =
                        static_cast<size_t>(options.batch_size);
                    std::vector<PackedBatch> batches;
                    for (size_t start = 0; start < misses.size();
                         start += stride) {
                        std::vector<const std::vector<graphir::TokenId> *>
                            rows;
                        for (size_t j = start;
                             j < std::min(misses.size(), start + stride);
                             ++j)
                            rows.push_back(&misses[j]);
                        if (static_cast<int>(rows.size()) >
                            plan->batchMax())
                            continue;
                        batches.push_back(packBatch(rows, max_positions));
                    }
                    Span span("plan.run", request_base + i);
                    for (const PackedBatch &b : batches)
                        plan->run(b.ids, b.lengths, b.rows, b.time);
                }
                if (options.cache != nullptr) {
                    Span span("cache.insert", request_base + i);
                    for (size_t u = 0; u < misses.size(); ++u)
                        options.cache->insert(misses[u], miss_preds[u]);
                }
                for (size_t j = 0; j < token_paths.size(); ++j) {
                    if (!hit[j])
                        preds[j] = miss_preds[assign[j]];
                }
            }

            Span span("core.aggregate", request_base + i);
            std::vector<double> activities;
            std::vector<size_t> lengths;
            for (const auto &path : sampled) {
                activities.push_back(
                    0.5 * (graph.activity(path.nodes.front()) +
                           graph.activity(path.nodes.back())));
                lengths.push_back(path.nodes.size());
            }
            const auto summary =
                core::reduceAggregates(graph, preds, lengths, activities);
            const auto &heads = predictor.heads();
            prediction.timing_ps = heads.timing->predict(summary);
            prediction.area_um2 = heads.area->predict(summary);
            prediction.power_mw = heads.power->predict(summary);
            if (options.collect_critical_path) {
                size_t argmax = 0;
                for (size_t j = 1; j < preds.size(); ++j) {
                    if (preds[j].timing_ps > preds[argmax].timing_ps)
                        argmax = j;
                }
                prediction.critical_path = sampled[argmax].nodes;
            }
        }
    });
    counts.designs += graphs.size();
    counts.paths += paths_total.load();
    counts.path_tokens += tokens_total.load();
    counts.lookups += lookups_total.load();
    return out;
}

namespace {

/** Seconds a kernel call takes, repeated for at least `budget_s`. */
template <class F>
double
secondsPerCall(F &&call, double budget_s)
{
    call(); // untimed first call: page in the operands
    int calls = 0;
    const auto start = Clock::now();
    do {
        call();
        ++calls;
    } while (secondsSince(start) < budget_s);
    return secondsSince(start) / calls;
}

/** GEMM flop per path of `plan` at a mean path length of `tokens`:
 * every Gemm op multiplies `tokens` rows by its weight matrix, and the
 * two attention batched products cost tokens^2 * d_model each. */
double
gemmFlopsPerPath(const plan::Plan &plan, double tokens)
{
    double flops = 0.0;
    for (const auto &op : plan.ops) {
        if (op.kind == plan::OpKind::Gemm && !op.weights.empty()) {
            const auto &w = plan.weights[op.weights.front()];
            flops += 2.0 * tokens * w.rows * w.cols;
        } else if (op.kind == plan::OpKind::BmmTransB ||
                   op.kind == plan::OpKind::Bmm) {
            flops += 2.0 * tokens * tokens * plan.config.d_model;
        }
    }
    return flops;
}

} // namespace

void
reportPredictionLayers(Report &report, const core::SnsPredictor &predictor,
                       core::Precision precision,
                       const TracedCounts &counts)
{
    const Tracer *tracer = Tracer::active();
    if (tracer == nullptr || counts.designs == 0)
        return;
    const auto stats = tracer->stats();
    const auto total = [&stats](const char *name) {
        const auto it = stats.find(name);
        return it == stats.end() ? 0.0 : it->second.total_us;
    };
    const auto perCall = [&stats](const char *name) {
        const auto it = stats.find(name);
        return it == stats.end() || it->second.count == 0
                   ? 0.0
                   : it->second.total_us /
                         static_cast<double>(it->second.count);
    };
    const double designs = static_cast<double>(counts.designs);
    report.add("netlist.parse_us", "us", perCall("netlist.parse"));
    report.add("sampler.sample_us", "us", total("sampler.sample") / designs);
    report.add("sampler.paths_per_design", "paths",
               static_cast<double>(counts.paths) / designs);
    if (counts.lookups > 0)
        report.add("cache.lookup_ns", "ns",
                   1e3 * total("cache.probe") /
                       static_cast<double>(counts.lookups));
    const double model_us = total("core.model");
    const double plan_us = total("plan.run");
    report.add("core.model_us", "us", model_us / designs);
    report.add("core.aggregate_us", "us", total("core.aggregate") / designs);
    report.add("plan.run_us", "us", plan_us / designs);
    report.add("plan.outside_share", "ratio",
               model_us > 0.0 ? 1.0 - plan_us / model_us : 0.0);

    // Kernel rates at the plan's feed-forward shape: one padded batch
    // of 64 paths at the traced mean path length, times d_model into
    // d_ff — single-threaded, as the plan runs them inside a pool task.
    const auto &plan_ptr = precision == core::Precision::Int8
                               ? predictor.circuitformer().boundQuantPlan()
                               : predictor.circuitformer().boundPlan();
    const double tokens =
        counts.paths == 0 ? 1.0
                          : static_cast<double>(counts.path_tokens) /
                                static_cast<double>(counts.paths);
    if (plan_ptr != nullptr)
        report.add("plan.gemm_flops_per_path", "flop",
                   gemmFlopsPerPath(plan_ptr->plan(), tokens));
    const auto &encoder = predictor.circuitformer().config().encoder;
    const int m = 64 * std::max(1, static_cast<int>(std::lround(tokens)));
    const int k = encoder.d_model;
    const int n = encoder.d_ff;
    const double flop = 2.0 * m * n * k;
    par::ScopedThreads one_thread(1);
    Rng rng(1);
    {
        const auto a = tensor::Tensor::randn({m, k}, rng);
        const auto b = tensor::Tensor::randn({k, n}, rng);
        std::vector<float> panels(tensor::gemmPackedFloats(n, k));
        tensor::gemmPackB(b.data(), n, k, false, panels.data());
        std::vector<float> c(static_cast<size_t>(m) * n);
        const double s = secondsPerCall(
            [&] {
                std::fill(c.begin(), c.end(), 0.0f);
                tensor::gemmAccPacked(a.data(), b.data(), panels.data(),
                                      c.data(), m, n, k, false, false);
            },
            0.2);
        report.add("tensor.gemm_gflops", "GFLOP/s", flop / s / 1e9);
    }
    {
        std::vector<int8_t> b(static_cast<size_t>(k) * n);
        for (auto &v : b)
            v = static_cast<int8_t>(static_cast<int>(rng.next() % 255u) -
                                    127);
        tensor::QuantPanels panels;
        tensor::qgemmPackB(b.data(), k, n, panels);
        std::vector<uint8_t> a(static_cast<size_t>(m) * panels.k_padded, 0);
        for (int i = 0; i < m; ++i)
            for (int p = 0; p < k; ++p)
                a[static_cast<size_t>(i) * panels.k_padded + p] =
                    static_cast<uint8_t>(rng.next() % 128u);
        std::vector<int32_t> c(static_cast<size_t>(m) * n);
        const double s = secondsPerCall(
            [&] { tensor::qgemmI32(a.data(), panels, c.data(), m); }, 0.2);
        report.add("tensor.qgemm_gops", "GOP/s", flop / s / 1e9);
    }
}

} // namespace snsbench
