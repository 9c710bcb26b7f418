/**
 * @file
 * In-memory span tracing around the calls the benchmark makes into
 * each layer.
 *
 * A span is (name, start, end, parent span, request id, thread). While
 * no Tracer is installed a Span costs one branch; with one installed it
 * appends to a per-thread buffer (one lock per thread, at its first
 * span), and the parent defaults to the innermost open span on the
 * same thread — work handed to the sns::par pool names its parent
 * explicitly. At exit the tracer writes Chrome trace-event JSON
 * (chrome://tracing, Perfetto) and summarises each span name by count,
 * total, self time (duration minus the time its children cover) and
 * median duration.
 */

#ifndef SNSBENCH_TRACE_HH
#define SNSBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace snsbench {

/** Per-name totals over every recorded span (microseconds). */
struct SpanStats
{
    uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    double p50_us = 0.0;
};

class Tracer
{
  public:
    struct Record
    {
        uint64_t id = 0;
        uint64_t parent = 0; ///< 0 = root
        uint64_t request = 0;
        const char *name = nullptr; ///< a string literal
        int64_t start_ns = 0;
        int64_t end_ns = 0;
        uint32_t thread = 0;
    };

    Tracer();
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The installed tracer, or nullptr when tracing is off. */
    static Tracer *active();

    /** Install (or with nullptr, remove) the process tracer. */
    static void install(Tracer *tracer);

    /** Every span recorded so far, in no particular order. */
    std::vector<Record> records() const;

    /** Summary per span name. */
    std::map<std::string, SpanStats> stats() const;

    /** Write Chrome trace-event JSON; false when the file cannot be
     * written. */
    bool writeChrome(const std::string &path) const;

  private:
    friend class Span;
    struct ThreadBuffer
    {
        uint32_t thread = 0;
        std::vector<Record> records;
    };
    ThreadBuffer &buffer();

    const uint64_t serial_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
    int64_t origin_ns_ = 0;
};

/**
 * The share of the traced time spent recording spans: every span of
 * `tracer` at the measured cost of recording one, over the summed
 * duration of its root spans. Spans recorded in parallel make this an
 * upper bound.
 */
double tracingOverhead(const Tracer &tracer);

/** RAII span; see the file comment. */
class Span
{
  public:
    /** `name` must outlive the tracer (use a literal). `parent` 0 means
     * the innermost open span on this thread. */
    explicit Span(const char *name, uint64_t request = 0,
                  uint64_t parent = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 while tracing is off); pass it as `parent` to
     * spans opened on other threads. */
    uint64_t id() const { return record_.id; }

  private:
    Tracer *tracer_;
    Tracer::Record record_;
    uint64_t saved_current_ = 0;
};

} // namespace snsbench

#endif // SNSBENCH_TRACE_HH
