#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>

#include "report.hh"

namespace snsbench {

namespace {

std::atomic<Tracer *> g_tracer{nullptr};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_thread{1};
std::atomic<uint64_t> g_next_tracer{1};
thread_local uint64_t t_current = 0;
/** The tracer (by serial, never reused) this thread's buffer belongs to. */
thread_local uint64_t t_owner = 0;
thread_local void *t_buffer = nullptr;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Tracer::Tracer() : serial_(g_next_tracer.fetch_add(1)), origin_ns_(nowNs())
{
}

Tracer::~Tracer()
{
    if (active() == this)
        install(nullptr);
}

Tracer *
Tracer::active()
{
    return g_tracer.load(std::memory_order_acquire);
}

void
Tracer::install(Tracer *tracer)
{
    g_tracer.store(tracer, std::memory_order_release);
}

Tracer::ThreadBuffer &
Tracer::buffer()
{
    // A thread's buffer pointer is cached per tracer: a thread that
    // outlives one tracer and records into the next gets a fresh one.
    if (t_owner != serial_) {
        auto owned = std::make_unique<ThreadBuffer>();
        owned->thread = g_next_thread.fetch_add(1);
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::move(owned));
        t_buffer = buffers_.back().get();
        t_owner = serial_;
    }
    return *static_cast<ThreadBuffer *>(t_buffer);
}

std::vector<Tracer::Record>
Tracer::records() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Record> all;
    for (const auto &buf : buffers_)
        all.insert(all.end(), buf->records.begin(), buf->records.end());
    return all;
}

std::map<std::string, SpanStats>
Tracer::stats() const
{
    const auto all = records();
    std::map<uint64_t, int64_t> child_ns; // parent id -> covered time
    for (const auto &r : all) {
        if (r.parent != 0)
            child_ns[r.parent] += r.end_ns - r.start_ns;
    }
    std::map<std::string, std::vector<double>> durations;
    std::map<std::string, SpanStats> out;
    for (const auto &r : all) {
        const double dur_us = static_cast<double>(r.end_ns - r.start_ns) /
                              1e3;
        const auto it = child_ns.find(r.id);
        // Children on other threads may overlap each other; self time
        // never goes below zero.
        const double covered_us =
            it == child_ns.end() ? 0.0
                                 : static_cast<double>(it->second) / 1e3;
        SpanStats &s = out[r.name];
        ++s.count;
        s.total_us += dur_us;
        s.self_us += std::max(0.0, dur_us - covered_us);
        durations[r.name].push_back(dur_us);
    }
    for (auto &[name, s] : out)
        s.p50_us = median(durations[name]);
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\": [";
    bool first = true;
    for (const auto &r : records()) {
        out << (first ? "\n" : ",\n") << "{\"name\": " << jsonString(r.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.thread
            << ", \"ts\": "
            << formatNumber(static_cast<double>(r.start_ns - origin_ns_) /
                            1e3)
            << ", \"dur\": "
            << formatNumber(static_cast<double>(r.end_ns - r.start_ns) /
                            1e3)
            << ", \"args\": {\"id\": " << r.id << ", \"parent\": "
            << r.parent << ", \"request\": " << r.request << "}}";
        first = false;
    }
    out << "\n], \"displayTimeUnit\": \"ms\"}\n";
    return static_cast<bool>(out);
}

double
tracingOverhead(const Tracer &tracer)
{
    // What one span costs to record, measured into a private tracer.
    Tracer *const active = Tracer::active();
    double span_ns = 0.0;
    {
        Tracer probe;
        Tracer::install(&probe);
        constexpr int kProbeSpans = 20000;
        const int64_t start = nowNs();
        for (int i = 0; i < kProbeSpans; ++i)
            Span span("trace.probe");
        span_ns = static_cast<double>(nowNs() - start) / kProbeSpans;
        Tracer::install(nullptr);
    }
    Tracer::install(active);
    const auto all = tracer.records();
    double root_ns = 0.0;
    for (const auto &r : all) {
        if (r.parent == 0)
            root_ns += static_cast<double>(r.end_ns - r.start_ns);
    }
    return root_ns > 0.0
               ? static_cast<double>(all.size()) * span_ns / root_ns
               : 0.0;
}

Span::Span(const char *name, uint64_t request, uint64_t parent)
    : tracer_(Tracer::active())
{
    if (tracer_ == nullptr)
        return;
    record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    record_.parent = parent != 0 ? parent : t_current;
    record_.request = request;
    record_.name = name;
    saved_current_ = t_current;
    t_current = record_.id;
    record_.start_ns = nowNs();
}

Span::~Span()
{
    if (tracer_ == nullptr)
        return;
    record_.end_ns = nowNs();
    t_current = saved_current_;
    auto &buf = tracer_->buffer();
    record_.thread = buf.thread;
    buf.records.push_back(record_);
}

} // namespace snsbench
