/**
 * @file
 * `snsbench compare OLD NEW` and `snsbench validate` — the two readers
 * of what runs wrote.
 *
 * compare groups the untraced, correct records of two trajectory files
 * (JSON lines, as sweep.sh appends them) by workload and, for every
 * end-to-end metric of BENCHMARK.json, sets the new median against the
 * old one. A change worse than the metric's bound is a REGRESSION —
 * unless the run-to-run spread (quartile distance over median, the
 * same quantiles as Python's statistics.quantiles) of either side
 * exceeds the bound, in which case the metric is "unresolved". It also
 * reports every workload/seed whose prediction digest moved.
 *
 * validate checks one run's result line against BENCHMARK.json (every
 * metric of the mode present, with its unit, nothing else) and, given
 * a Chrome trace file, that it parses and every span's parent exists.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>

#include "json.hh"
#include "report.hh"

namespace snsbench {

namespace {

struct Runs
{
    std::map<std::string, std::map<std::string, std::vector<double>>>
        metrics; ///< workload -> metric -> values
    std::map<std::string, std::string> digests; ///< "workload seed tier"
};

bool
loadRuns(const std::string &path, Runs &runs, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        Json record;
        if (!parseJson(line, record, error)) {
            error = path + ":" + std::to_string(lineno) + ": " + error;
            return false;
        }
        const Json *workload = record.get("workload");
        const Json *trace = record.get("trace");
        const Json *correct = record.get("correct");
        const Json *metrics = record.get("metrics");
        if (workload == nullptr || metrics == nullptr)
            continue;
        if ((trace != nullptr && trace->number != 0.0) ||
            (correct != nullptr && !correct->boolean))
            continue;
        for (const auto &[name, metric] : metrics->object) {
            if (const Json *value = metric.get("value"))
                runs.metrics[workload->string][name].push_back(
                    value->number);
        }
        const Json *seed = record.get("seed");
        if (const Json *digests = record.get("digests")) {
            for (const auto &[tier, value] : digests->object) {
                runs.digests[workload->string + " seed " +
                             formatNumber(seed ? seed->number : 0.0) +
                             " " + tier] = value.string;
            }
        }
    }
    return true;
}

double
spread(const std::vector<double> &values)
{
    const double mid = median(values);
    return mid != 0.0
               ? (quantile(values, 0.75) - quantile(values, 0.25)) /
                     std::fabs(mid)
               : 0.0;
}

/** Option `--name VALUE` / `--name=VALUE` at argv[i] (advances i). */
bool
option(int argc, char **argv, int &i, const std::string &name,
       std::string &value)
{
    const std::string arg = argv[i];
    if (arg == name && i + 1 < argc) {
        value = argv[++i];
        return true;
    }
    if (arg.rfind(name + "=", 0) == 0) {
        value = arg.substr(name.size() + 1);
        return true;
    }
    return false;
}

} // namespace

int
runCompare(int argc, char **argv)
{
    std::string benchmark = "BENCHMARK.json";
    std::vector<std::string> files;
    for (int i = 2; i < argc; ++i) {
        std::string value;
        if (option(argc, argv, i, "--benchmark", value))
            benchmark = value;
        else
            files.push_back(argv[i]);
    }
    if (files.size() != 2) {
        std::cerr << "usage: snsbench compare [--benchmark FILE] OLD.jsonl "
                     "NEW.jsonl\n";
        return 2;
    }
    std::vector<MetricDef> defs;
    Runs old_runs;
    Runs new_runs;
    std::string error;
    if (!loadMetricDefs(benchmark, "end_to_end", defs, error) ||
        !loadRuns(files[0], old_runs, error) ||
        !loadRuns(files[1], new_runs, error)) {
        std::cerr << "snsbench compare: " << error << "\n";
        return 2;
    }

    int regressions = 0;
    std::printf("%-16s %-12s %14s %14s %8s %7s %7s  %s\n", "workload",
                "metric", "old median", "new median", "change", "spread",
                "bound", "verdict");
    for (const auto &[workload, old_metrics] : old_runs.metrics) {
        const auto it = new_runs.metrics.find(workload);
        if (it == new_runs.metrics.end())
            continue;
        for (const MetricDef &def : defs) {
            const auto o = old_metrics.find(def.name);
            const auto n = it->second.find(def.name);
            if (o == old_metrics.end() || n == it->second.end())
                continue;
            const double old_median = median(o->second);
            const double new_median = median(n->second);
            const double change =
                old_median != 0.0
                    ? (new_median - old_median) / std::fabs(old_median)
                    : 0.0;
            const double worse = def.lower_is_better ? change : -change;
            const double noise = std::max(spread(o->second),
                                          spread(n->second));
            const char *verdict = "ok";
            if (noise > def.bound) {
                verdict = "unresolved";
            } else if (worse > def.bound) {
                verdict = "REGRESSION";
                ++regressions;
            }
            std::printf("%-16s %-12s %14.6g %14.6g %+7.2f%% %6.2f%% "
                        "%6.2f%%  %s\n",
                        workload.c_str(), def.name.c_str(), old_median,
                        new_median, 100.0 * change, 100.0 * noise,
                        100.0 * def.bound, verdict);
        }
    }
    for (const auto &[key, digest] : new_runs.digests) {
        const auto it = old_runs.digests.find(key);
        if (it != old_runs.digests.end() && it->second != digest)
            std::printf("digest moved: %s %s -> %s\n", key.c_str(),
                        it->second.c_str(), digest.c_str());
    }
    return regressions == 0 ? 0 : 1;
}

int
runValidate(int argc, char **argv)
{
    std::string benchmark = "BENCHMARK.json";
    std::string result_file;
    std::string trace_file;
    std::string trace = "0";
    for (int i = 2; i < argc; ++i) {
        std::string value;
        if (option(argc, argv, i, "--benchmark", value))
            benchmark = value;
        else if (option(argc, argv, i, "--result", value))
            result_file = value;
        else if (option(argc, argv, i, "--trace-file", value))
            trace_file = value;
        else if (option(argc, argv, i, "--trace", value))
            trace = value;
        else {
            std::cerr << "snsbench validate: unknown argument " << argv[i]
                      << "\n";
            return 2;
        }
    }
    std::vector<MetricDef> defs;
    Json result;
    std::string error;
    if (!loadMetricDefs(benchmark, trace == "1" ? "per_layer" : "end_to_end",
                        defs, error) ||
        !parseJsonFile(result_file, result, error)) {
        std::cerr << "snsbench validate: " << error << "\n";
        return 1;
    }
    int problems = 0;
    auto problem = [&problems](const std::string &what) {
        std::cerr << "snsbench validate: " << what << "\n";
        ++problems;
    };
    const Json *correct = result.get("correct");
    const Json *attempted = result.get("attempted");
    const Json *failed = result.get("failed");
    const Json *metrics = result.get("metrics");
    if (result.object.size() != 4 || correct == nullptr ||
        attempted == nullptr || failed == nullptr || metrics == nullptr)
        problem("result must have exactly correct, attempted, failed, "
                "metrics");
    if (correct != nullptr && !correct->boolean)
        problem("run reported correct: false");
    if (attempted != nullptr && attempted->number < 1)
        problem("attempted < 1");
    if (metrics != nullptr) {
        std::set<std::string> expected;
        for (const MetricDef &def : defs) {
            expected.insert(def.name);
            const Json *metric = metrics->get(def.name);
            if (metric == nullptr) {
                problem("metric " + def.name + " missing");
                continue;
            }
            const Json *unit = metric->get("unit");
            const Json *value = metric->get("value");
            if (unit == nullptr || unit->string != def.unit)
                problem("metric " + def.name + " lacks unit " + def.unit);
            if (value == nullptr || value->kind != Json::Kind::Number)
                problem("metric " + def.name + " has no numeric value");
        }
        for (const auto &[name, metric] : metrics->object) {
            if (!expected.count(name))
                problem("metric " + name + " is not in " + benchmark);
        }
    }
    if (!trace_file.empty()) {
        Json doc;
        if (!parseJsonFile(trace_file, doc, error)) {
            problem(error);
        } else {
            const Json *events = doc.get("traceEvents");
            std::set<double> ids;
            std::vector<double> parents;
            if (events != nullptr) {
                for (const Json &event : events->array) {
                    const Json *args = event.get("args");
                    const Json *id = args ? args->get("id") : nullptr;
                    const Json *parent = args ? args->get("parent") : nullptr;
                    if (id == nullptr || parent == nullptr) {
                        problem("trace event without id/parent");
                        break;
                    }
                    ids.insert(id->number);
                    parents.push_back(parent->number);
                }
            }
            if (ids.empty())
                problem("trace has no spans");
            for (const double parent : parents) {
                if (parent != 0.0 && !ids.count(parent)) {
                    problem("span parent " + formatNumber(parent) +
                            " is not in the trace");
                    break;
                }
            }
        }
    }
    return problems == 0 ? 0 : 1;
}

} // namespace snsbench
