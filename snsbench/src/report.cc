#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>
#include <time.h>

#include "json.hh"
#include "par/thread_pool.hh"
#include "tensor/gemm.hh"
#include "tensor/qgemm.hh"

#ifndef SNSBENCH_BUILD_FLAGS
#define SNSBENCH_BUILD_FLAGS "unknown"
#endif

namespace snsbench {

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Python's statistics.quantiles 'exclusive' method: the q-quantile
    // sits at 1-based rank q (n + 1), here clamped to the sample.
    const double n = static_cast<double>(values.size());
    const double pos = std::clamp(q * (n + 1.0), 1.0, n) - 1.0;
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

void
Digest::add(const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        hash_ ^= p[i];
        hash_ *= 0x100000001b3ull;
    }
}

void
Digest::add(const sns::core::SnsPrediction &prediction)
{
    add(&prediction.timing_ps, sizeof(double));
    add(&prediction.area_um2, sizeof(double));
    add(&prediction.power_mw, sizeof(double));
    const uint64_t paths = prediction.paths_sampled;
    add(&paths, sizeof(paths));
}

void
Digest::add(const std::vector<sns::core::SnsPrediction> &predictions)
{
    for (const auto &prediction : predictions)
        add(prediction);
}

bool
samePrediction(const sns::core::SnsPrediction &a,
               const sns::core::SnsPrediction &b)
{
    return std::memcmp(&a.timing_ps, &b.timing_ps, sizeof(double)) == 0 &&
           std::memcmp(&a.area_um2, &b.area_um2, sizeof(double)) == 0 &&
           std::memcmp(&a.power_mw, &b.power_mw, sizeof(double)) == 0 &&
           a.paths_sampled == b.paths_sampled &&
           a.critical_path == b.critical_path;
}

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
            out += buffer;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

bool
loadMetricDefs(const std::string &path, const char *section,
               std::vector<MetricDef> &out, std::string &error)
{
    Json doc;
    if (!parseJsonFile(path, doc, error))
        return false;
    const Json *list = doc.get(section);
    if (list == nullptr || list->kind != Json::Kind::Array) {
        error = path + ": no \"" + section + "\" list";
        return false;
    }
    for (const Json &entry : list->array) {
        const Json *name = entry.get("name");
        const Json *unit = entry.get("unit");
        const Json *better = entry.get("better");
        const Json *bound = entry.get("bound");
        if (name == nullptr || unit == nullptr || better == nullptr) {
            error = path + ": metric entry without name/unit/better";
            return false;
        }
        out.push_back({name->string, unit->string,
                       better->string == "lower",
                       bound != nullptr ? bound->number : 0.0});
    }
    return true;
}

Report::Report(std::string workload, uint64_t seed, int seconds, bool trace,
               std::vector<MetricDef> printed)
    : workload_(std::move(workload)), seed_(seed), seconds_(seconds),
      trace_(trace), printed_(std::move(printed))
{
}

void
Report::add(const std::string &name, const std::string &unit, double value,
            std::vector<double> samples)
{
    metrics_[name] = Metric{unit, value, std::move(samples)};
}

void
Report::digest(const std::string &tier, uint64_t value)
{
    digests_[tier] = value;
}

void
Report::incorrect(const std::string &why)
{
    correct_ = false;
    std::cerr << "[snsbench] " << workload_ << ": INCORRECT: " << why
              << "\n";
}

namespace {

std::string
hex(uint64_t value)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

} // namespace

void
Report::finish()
{
    for (const MetricDef &def : printed_) {
        const auto it = metrics_.find(def.name);
        if (it == metrics_.end()) {
            // A layer this workload never calls did no work: 0 is the
            // measurement. An end-to-end metric is never legitimately
            // absent.
            if (!trace_)
                incorrect(std::string("end-to-end metric ") + def.name +
                          " was not measured");
            metrics_[def.name] = Metric{def.unit, 0.0, {}};
        } else if (it->second.unit != def.unit) {
            incorrect(std::string("metric ") + def.name + " has unit " +
                      it->second.unit + ", expected " + def.unit);
        }
    }
}

void
Report::print(std::ostream &out) const
{
    for (const MetricDef &def : printed_) {
        out << "METRIC " << workload_ << " " << def.name << " " << def.unit
            << " " << formatNumber(metrics_.at(def.name).value) << "\n";
    }
    for (const auto &[tier, value] : digests_)
        out << "DIGEST " << workload_ << " " << tier << " " << hex(value)
            << "\n";
    out << "{\"correct\": " << (correct_ ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &def : printed_) {
        out << (first ? "" : ", ") << jsonString(def.name)
            << ": {\"value\": "
            << formatNumber(metrics_.at(def.name).value)
            << ", \"unit\": " << jsonString(def.unit) << "}";
        first = false;
    }
    out << "}}" << std::endl;
}

std::string
Report::record() const
{
    std::ostringstream out;
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    const char *rev = std::getenv("SNSBENCH_GIT_REV");
    out << "{\"workload\": " << jsonString(workload_)
        << ", \"seed\": " << seed_ << ", \"seconds\": " << seconds_
        << ", \"trace\": " << (trace_ ? 1 : 0) << ", \"unix_time\": "
        << std::chrono::duration_cast<std::chrono::seconds>(now).count()
        << ", \"correct\": " << (correct_ ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"env\": {\"git_rev\": "
        << jsonString(rev != nullptr && *rev != '\0' ? rev : "unknown")
        << ", \"build_flags\": " << jsonString(SNSBENCH_BUILD_FLAGS)
        << ", \"gemm_simd\": " << (sns::tensor::gemmSimdActive() ? 1 : 0)
        << ", \"qgemm_level\": " << sns::tensor::qgemmLevel()
        << ", \"pool_width\": " << sns::par::configuredThreads()
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << "}, \"digests\": {";
    bool first = true;
    for (const auto &[tier, value] : digests_) {
        out << (first ? "" : ", ") << jsonString(tier) << ": "
            << jsonString(hex(value));
        first = false;
    }
    out << "}, \"metrics\": {";
    first = true;
    for (const auto &[name, metric] : metrics_) {
        out << (first ? "" : ", ") << jsonString(name)
            << ": {\"value\": " << formatNumber(metric.value)
            << ", \"unit\": " << jsonString(metric.unit)
            << ", \"repeats\": " << metric.samples.size()
            << ", \"p25\": " << formatNumber(quantile(metric.samples, 0.25))
            << ", \"p75\": " << formatNumber(quantile(metric.samples, 0.75))
            << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

} // namespace snsbench
