/**
 * @file
 * The one reporter every snsbench workload writes through.
 *
 * A workload adds metrics (name, unit, value and the samples the value
 * summarises), a prediction digest per numeric tier, and its
 * attempted / failed / correct counts. print() then emits
 *
 *   METRIC <workload> <name> <unit> <value>     one line per metric
 *   DIGEST <workload> <tier> <fnv1a-hex>        one line per tier
 *   {"correct": ..., "attempted": ..., ...}     always the last line
 *
 * and record() renders the same run as one JSON object in the schema
 * trajectory.jsonl and `snsbench compare` read: every metric with its
 * repeats and quartiles, plus the environment the numbers depend on
 * (build flags, SIMD rungs, pool width, nproc, git revision).
 */

#ifndef SNSBENCH_REPORT_HH
#define SNSBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/predictor.hh"

namespace snsbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * CPU seconds (user + system) this process has used, over all its
 * threads. The end-to-end timings are CPU time: on a shared virtual
 * machine the host steals a varying share of each vCPU, which shows in
 * wall time (2x swings between minutes) but not in CPU time.
 */
double cpuSeconds();

/** The q-quantile (0..1) of `values` by the method of Python's
 * statistics.quantiles (the default, 'exclusive'), so the quartiles of
 * 3 or more samples equal statistics.quantiles(values, n=4); 0 for an
 * empty sample. */
double quantile(std::vector<double> values, double q);

/** quantile(values, 0.5). */
double median(const std::vector<double> &values);

/** FNV-1a over every bit a prediction carries, in the order added. */
class Digest
{
  public:
    void add(const void *data, size_t bytes);
    void add(const sns::core::SnsPrediction &prediction);
    void add(const std::vector<sns::core::SnsPrediction> &predictions);
    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** True when every field of the two predictions is bitwise equal. */
bool samePrediction(const sns::core::SnsPrediction &a,
                    const sns::core::SnsPrediction &b);

/** One metric BENCHMARK.json lists; `bound` is 0 for per-layer ones. */
struct MetricDef
{
    std::string name;
    std::string unit;
    bool lower_is_better = true;
    double bound = 0.0;
};

/** The `section` list ("end_to_end" or "per_layer") of the benchmark
 * file at `path`; false, with a message in `error`, when it cannot be
 * read. */
bool loadMetricDefs(const std::string &path, const char *section,
                    std::vector<MetricDef> &out, std::string &error);

/** One reported metric: value plus the samples it summarises. */
struct Metric
{
    std::string unit;
    double value = 0.0;
    std::vector<double> samples; ///< empty when the value is a count
};

/** One workload run's results (see the file comment). */
class Report
{
  public:
    /** `printed` is the mode's metric list: BENCHMARK.json's
     * end-to-end metrics untraced, its per-layer metrics traced. */
    Report(std::string workload, uint64_t seed, int seconds, bool trace,
           std::vector<MetricDef> printed);

    /** Add (or replace) a metric. */
    void add(const std::string &name, const std::string &unit,
             double value, std::vector<double> samples = {});

    /** Record the prediction digest of one numeric tier. */
    void digest(const std::string &tier, uint64_t value);

    /** Count one operation attempted / failed. */
    void attempt(uint64_t n = 1) { attempted_ += n; }
    void fail(uint64_t n = 1) { failed_ += n; }

    /** A bitwise or consistency check failed; `why` goes to stderr. */
    void incorrect(const std::string &why);

    bool correct() const { return correct_; }

    /** Check the run's metrics against the printed list: a per-layer
     * metric nobody set is a layer the workload never called (0), an
     * unset end-to-end metric or a unit mismatch makes the run
     * incorrect. Call once, before print(). */
    void finish();

    /** METRIC / DIGEST lines for the mode's metrics, then the one-line
     * result object. */
    void print(std::ostream &out) const;

    /** The full trajectory record (one line of JSON). */
    std::string record() const;

  private:
    std::string workload_;
    uint64_t seed_;
    int seconds_;
    bool trace_;
    std::vector<MetricDef> printed_;
    std::map<std::string, Metric> metrics_;
    std::map<std::string, uint64_t> digests_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    bool correct_ = true;
};

/** A number with all its digits, JSON-safe (non-finite becomes 0). */
std::string formatNumber(double value);

/** JSON string literal for `text`. */
std::string jsonString(const std::string &text);

} // namespace snsbench

#endif // SNSBENCH_REPORT_HH
