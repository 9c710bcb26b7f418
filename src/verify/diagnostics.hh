/**
 * @file
 * Structured diagnostics for the sns::verify static analyzer.
 *
 * Every checker in the analyzer emits Diagnostic records (severity,
 * stable rule id, location, message, optional fix-hint) into a Report.
 * Pipeline boundaries hand their Report to enforce(), whose behaviour
 * is governed by a process-wide Mode:
 *
 *   - Fatal (default, what tests run under): throw VerifyError if the
 *     report contains an ERROR diagnostic;
 *   - Count (release/serving): log and tally, never throw;
 *   - Off: skip enforcement entirely (boundaries also use enabled() to
 *     skip the analysis itself).
 *
 * Lint tools install a CollectGuard, which redirects every enforce()
 * call on the thread into a sink Report so that a single run can
 * gather all findings instead of dying at the first one.
 *
 * This header is dependency-light (util only) and uses C++17 inline
 * variables for its globals, so low-level libraries (graphir, tensor)
 * can participate without linking against the checker library.
 */

#ifndef SNS_VERIFY_DIAGNOSTICS_HH
#define SNS_VERIFY_DIAGNOSTICS_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/container.hh"
#include "util/logging.hh"

namespace sns::verify {

/** Diagnostic severity. Only Error affects exit codes / enforcement. */
enum class Severity
{
    Note,     ///< informational; surfaced only in verbose listings
    Warning,  ///< suspicious but survivable
    Error,    ///< structural invariant violated; artifact is unusable
};

/** Printable severity tag. */
inline const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

/** @name Stable rule identifiers
 * G-* fire on GraphIR circuits, V-VOCAB/V-ROUNDTRIP on the vocabulary,
 * V-OPT-* on PredictOptions combinations, V-SESS-* on design-session
 * lifecycle misuse, P-SHORT/P-LONG/P-OOV/P-ENDPOINT/P-INTERIOR on
 * circuit paths, D-* on datasets, S-* on synthesis results, T-* on
 * tensors and training, C-* on training-checkpoint containers, and the
 * remaining P-* ids on serialized execution plans (.snsp,
 * docs/plan.md). docs/verify.md documents each one.
 * @{
 */
namespace rules {
inline constexpr const char *kGraphCycle = "G-CYCLE";
inline constexpr const char *kGraphEdge = "G-EDGE";
inline constexpr const char *kGraphMultiDriver = "G-MULTIDRIVER";
inline constexpr const char *kGraphArity = "G-ARITY";
inline constexpr const char *kGraphWidth = "G-WIDTH";
inline constexpr const char *kGraphDangling = "G-DANGLING";
inline constexpr const char *kGraphDeadCode = "G-DEADCODE";
inline constexpr const char *kGraphUnreachable = "G-UNREACHABLE";
inline constexpr const char *kGraphRegister = "G-REG";
inline constexpr const char *kGraphActivity = "G-ACTIVITY";
inline constexpr const char *kVocabNode = "V-VOCAB";
inline constexpr const char *kVocabRoundTrip = "V-ROUNDTRIP";
inline constexpr const char *kPathShort = "P-SHORT";
inline constexpr const char *kPathLong = "P-LONG";
inline constexpr const char *kPathOutOfVocab = "P-OOV";
inline constexpr const char *kPathEndpoint = "P-ENDPOINT";
inline constexpr const char *kPathInterior = "P-INTERIOR";
inline constexpr const char *kLabelNotFinite = "D-LABEL-NAN";
inline constexpr const char *kLabelRange = "D-LABEL-RANGE";
inline constexpr const char *kSplitLeakage = "D-LEAKAGE";
inline constexpr const char *kDatasetSyntax = "D-SYNTAX";
inline constexpr const char *kSynthResult = "S-RESULT";
inline constexpr const char *kTensorNotFinite = "T-NONFINITE";
inline constexpr const char *kTensorShape = "T-SHAPE";
inline constexpr const char *kTrainLoss = "T-LOSS";
inline constexpr const char *kCheckpointOpen = "C-OPEN";
inline constexpr const char *kCheckpointMagic = "C-MAGIC";
inline constexpr const char *kCheckpointVersion = "C-VERSION";
inline constexpr const char *kCheckpointTruncated = "C-TRUNCATED";
inline constexpr const char *kCheckpointHash = "C-HASH";
inline constexpr const char *kPlanOpen = "P-OPEN";
inline constexpr const char *kPlanMagic = "P-MAGIC";
inline constexpr const char *kPlanVersion = "P-VERSION";
inline constexpr const char *kPlanTruncated = "P-TRUNCATED";
inline constexpr const char *kPlanHash = "P-HASH";
inline constexpr const char *kPlanBuffer = "P-BUFFER";
inline constexpr const char *kPlanShape = "P-SHAPE";
inline constexpr const char *kPlanOrder = "P-ORDER";
inline constexpr const char *kPlanAlloc = "P-ALLOC";
inline constexpr const char *kPlanModel = "P-MODEL";
inline constexpr const char *kPlanQuantOp = "P-QUANT-OP";
inline constexpr const char *kPlanQuantScale = "P-QUANT-SCALE";
inline constexpr const char *kPlanQuantEpilogue = "P-QUANT-EPILOGUE";
inline constexpr const char *kPlanQuantBoundary = "P-QUANT-BOUNDARY";
inline constexpr const char *kOptionsThreads = "V-OPT-THREADS";
inline constexpr const char *kOptionsBatch = "V-OPT-BATCH";
inline constexpr const char *kOptionsCache = "V-OPT-CACHE";
inline constexpr const char *kOptionsSession = "V-OPT-SESSION";
inline constexpr const char *kOptionsPrecision = "V-OPT-PRECISION";
inline constexpr const char *kSessionState = "V-SESS-STATE";
inline constexpr const char *kSessionModel = "V-SESS-MODEL";
inline constexpr const char *kDistWorld = "V-DIST-WORLD";
inline constexpr const char *kDistSlices = "V-DIST-SLICES";
inline constexpr const char *kDistEndpoint = "V-DIST-ENDPOINT";
inline constexpr const char *kShardTruncated = "C-SHARD-TRUNCATED";
inline constexpr const char *kShardMeta = "C-SHARD-META";
inline constexpr const char *kShardSet = "C-SHARD-SET";
} // namespace rules
/** @} */

/**
 * Location string for container/byte-format diagnostics (C-*, P-*):
 * artifact, absolute byte offset, and the field being decoded, e.g.
 * "model/plan.snsp @ byte 24 (op table)". Every container checker uses
 * this so a corrupted-fixture failure points at the corrupt block
 * instead of just naming the file.
 */
inline std::string
atByte(const std::string &artifact, uint64_t offset,
       const std::string &field)
{
    return artifact + " @ byte " + std::to_string(offset) + " (" + field +
           ")";
}

/** One finding: severity, stable rule id, location, message, hint. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    std::string rule;      ///< stable rule id (rules:: constants)
    std::string location;  ///< artifact + element, e.g. "fir2: node 3 (mul32)"
    std::string message;   ///< what is wrong
    std::string hint;      ///< how to fix it (may be empty)
};

/** An ordered collection of diagnostics from one or more checkers. */
class Report
{
  public:
    /** Append one diagnostic. */
    void add(Diagnostic diag) { diags_.push_back(std::move(diag)); }

    /** @name Severity-specific append helpers
     * @{
     */
    void
    note(std::string rule, std::string location, std::string message,
         std::string hint = "")
    {
        add({Severity::Note, std::move(rule), std::move(location),
             std::move(message), std::move(hint)});
    }

    void
    warning(std::string rule, std::string location, std::string message,
            std::string hint = "")
    {
        add({Severity::Warning, std::move(rule), std::move(location),
             std::move(message), std::move(hint)});
    }

    void
    error(std::string rule, std::string location, std::string message,
          std::string hint = "")
    {
        add({Severity::Error, std::move(rule), std::move(location),
             std::move(message), std::move(hint)});
    }
    /** @} */

    /** Splice another report's diagnostics onto this one. */
    void
    merge(Report other)
    {
        for (auto &diag : other.diags_)
            diags_.push_back(std::move(diag));
    }

    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

    bool empty() const { return diags_.empty(); }

    size_t size() const { return diags_.size(); }

    /** Number of diagnostics at one severity. */
    size_t
    count(Severity severity) const
    {
        size_t n = 0;
        for (const auto &diag : diags_)
            n += diag.severity == severity;
        return n;
    }

    bool hasErrors() const { return count(Severity::Error) > 0; }

    /** True if any diagnostic carries the given rule id. */
    bool
    hasRule(const std::string &rule) const
    {
        for (const auto &diag : diags_) {
            if (diag.rule == rule)
                return true;
        }
        return false;
    }

    /** One line per diagnostic: "error[G-CYCLE] loc: message (hint)". */
    void
    print(std::ostream &os, bool include_notes = false) const
    {
        for (const auto &diag : diags_) {
            if (diag.severity == Severity::Note && !include_notes)
                continue;
            os << severityName(diag.severity) << "[" << diag.rule << "] "
               << diag.location << ": " << diag.message;
            if (!diag.hint.empty())
                os << "  (hint: " << diag.hint << ")";
            os << "\n";
        }
    }

    /** Compact roll-up, e.g. "2 errors, 1 warning; first: [G-CYCLE] ...". */
    std::string
    summary() const
    {
        std::string out = std::to_string(count(Severity::Error)) +
                          " error(s), " +
                          std::to_string(count(Severity::Warning)) +
                          " warning(s)";
        for (const auto &diag : diags_) {
            if (diag.severity != Severity::Error)
                continue;
            out += "; first: [" + diag.rule + "] " + diag.location + ": " +
                   diag.message;
            break;
        }
        return out;
    }

  private:
    std::vector<Diagnostic> diags_;
};

/** How one container kind reports: its format, name, rule ids, and the
 * hints for "not this kind" and for a damaged file. */
struct ContainerRules
{
    const ContainerFormat &format;
    const char *kind;
    const char *open, *magic, *version, *truncated, *hash;
    const char *not_kind_hint, *damaged_hint;
};

/** Report a container's failed check as an error at its byte offset,
 * and trailing bytes as a warning; true when the payload is intact. */
inline bool
reportContainer(const Container &file, const std::string &path,
                const ContainerRules &rules, Report &report)
{
    const std::string magic(rules.format.magic, 4);
    const std::string kind = rules.kind;
    const auto fail = [&](const char *rule, const char *field,
                          const std::string &message,
                          const char *hint = "") {
        report.error(rule, atByte(path, file.offset, field), message, hint);
        return false;
    };
    switch (file.fault) {
    case ContainerFault::Open:
        report.error(rules.open, path, "cannot open " + kind + " file");
        return false;
    case ContainerFault::Header:
        return fail(rules.truncated, "header",
                    "file shorter than the 24-byte " + magic + " header",
                    rules.damaged_hint);
    case ContainerFault::Magic:
        return fail(rules.magic, "magic",
                    "bad container magic (expected \"" + magic + "\")",
                    rules.not_kind_hint);
    case ContainerFault::Version:
        return fail(rules.version, "version",
                    "unsupported " + kind + " version " +
                        std::to_string(file.version) + " (expected " +
                        std::to_string(rules.format.min_version) + ".." +
                        std::to_string(rules.format.max_version) + ")");
    case ContainerFault::Length:
        return fail(rules.truncated, "payload length",
                    "header declares " + std::to_string(file.length) +
                        " payload bytes but only " +
                        std::to_string(file.present) + " follow",
                    rules.damaged_hint);
    case ContainerFault::None:
    case ContainerFault::Hash:
        break;
    }
    if (file.present > file.length) {
        report.warning(rules.truncated,
                       atByte(path, kContainerHeaderBytes + file.length,
                              "payload tail"),
                       std::to_string(file.present - file.length) +
                           " trailing byte(s) after the declared payload");
    }
    return file.fault == ContainerFault::None ||
           fail(rules.hash, "payload hash",
                "payload hash mismatch (" + kind + " file is corrupt)",
                rules.damaged_hint);
}

/** Thrown by enforce() in Fatal mode when a report contains errors. */
class VerifyError : public std::logic_error
{
  public:
    VerifyError(const std::string &where, const Report &report)
        : std::logic_error("verification failed at " + where + ": " +
                           report.summary())
    {
    }
};

/** Enforcement behaviour at pipeline boundaries. */
enum class Mode
{
    Fatal,  ///< throw VerifyError on any ERROR diagnostic
    Count,  ///< log and tally only (release/serving behaviour)
    Off,    ///< skip boundary analysis entirely
};

namespace detail {

inline std::atomic<int> mode_override{-1};
inline std::atomic<size_t> error_count{0};
inline std::atomic<size_t> warning_count{0};
inline std::atomic<size_t> report_count{0};
inline thread_local Report *collector = nullptr;

inline Mode
modeFromEnv()
{
    const char *env = std::getenv("SNS_VERIFY");
    if (env == nullptr)
        return Mode::Fatal;
    const std::string value(env);
    if (value == "count")
        return Mode::Count;
    if (value == "off")
        return Mode::Off;
    return Mode::Fatal;
}

} // namespace detail

/** Current enforcement mode (SNS_VERIFY env var unless overridden). */
inline Mode
mode()
{
    const int forced = detail::mode_override.load(std::memory_order_relaxed);
    if (forced >= 0)
        return static_cast<Mode>(forced);
    static const Mode env_mode = detail::modeFromEnv();
    return env_mode;
}

/** Override the enforcement mode programmatically. */
inline void
setMode(Mode m)
{
    detail::mode_override.store(static_cast<int>(m),
                                std::memory_order_relaxed);
}

/** True when boundary analysis should run at all. */
inline bool
enabled()
{
    return detail::collector != nullptr || mode() != Mode::Off;
}

/** Running totals accumulated by enforce() (log-and-count mode). */
inline size_t totalErrors() { return detail::error_count.load(); }
inline size_t totalWarnings() { return detail::warning_count.load(); }
inline size_t totalReports() { return detail::report_count.load(); }

inline void
resetCounters()
{
    detail::error_count.store(0);
    detail::warning_count.store(0);
    detail::report_count.store(0);
}

/**
 * RAII redirection of this thread's enforce() calls into a sink report.
 * Lint tools use it to collect every finding without dying on the
 * first; nests, restoring the previous sink on destruction.
 */
class CollectGuard
{
  public:
    explicit CollectGuard(Report &sink) : previous_(detail::collector)
    {
        detail::collector = &sink;
    }

    ~CollectGuard() { detail::collector = previous_; }

    CollectGuard(const CollectGuard &) = delete;
    CollectGuard &operator=(const CollectGuard &) = delete;

  private:
    Report *previous_;
};

/** True while a CollectGuard is installed on this thread. */
inline bool
collecting()
{
    return detail::collector != nullptr;
}

/**
 * The single enforcement point for pipeline boundaries: collect (under
 * a CollectGuard), or log + count and, in Fatal mode, throw on errors.
 */
inline void
enforce(Report report, const std::string &where)
{
    if (report.empty())
        return;
    if (detail::collector != nullptr) {
        detail::collector->merge(std::move(report));
        return;
    }
    detail::report_count.fetch_add(1, std::memory_order_relaxed);
    detail::error_count.fetch_add(report.count(Severity::Error),
                                  std::memory_order_relaxed);
    detail::warning_count.fetch_add(report.count(Severity::Warning),
                                    std::memory_order_relaxed);
    const Mode m = mode();
    if (m == Mode::Off)
        return;
    // Fatal mode narrates only the report it is about to throw (the
    // exception carries just a summary); Count mode logs everything it
    // tallies.
    const bool fatal = m == Mode::Fatal && report.hasErrors();
    if (fatal || m == Mode::Count) {
        size_t logged = 0;
        for (const auto &diag : report.diagnostics()) {
            if (diag.severity == Severity::Note)
                continue;
            if (++logged > 16) {
                warn("verify: ", where, ": ...and ",
                     report.size() - logged + 1, " more diagnostic(s)");
                break;
            }
            warn("verify: ", severityName(diag.severity), "[", diag.rule,
                 "] ", where, ": ", diag.location, ": ", diag.message,
                 diag.hint.empty() ? "" : "  (hint: " + diag.hint + ")");
        }
    }
    if (fatal)
        throw VerifyError(where, report);
}

/** @name Debug-mode tensor sentinel switch
 * Checked by the autograd engine on every op result and backward pass;
 * off by default (zero overhead beyond one relaxed load). Enable with
 * SNS_TENSOR_SENTINEL=1 or setTensorSentinel(true).
 * @{
 */
namespace detail {
inline std::atomic<int> sentinel_override{-1};
} // namespace detail

inline bool
tensorSentinelEnabled()
{
    const int forced =
        detail::sentinel_override.load(std::memory_order_relaxed);
    if (forced >= 0)
        return forced != 0;
    static const bool env_enabled =
        std::getenv("SNS_TENSOR_SENTINEL") != nullptr;
    return env_enabled;
}

inline void
setTensorSentinel(bool enabled)
{
    detail::sentinel_override.store(enabled ? 1 : 0,
                                    std::memory_order_relaxed);
}
/** @} */

} // namespace sns::verify

#endif // SNS_VERIFY_DIAGNOSTICS_HH
