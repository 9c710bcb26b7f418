/**
 * @file
 * The sns::verify pass manager and its registered checkers.
 *
 * GraphAnalyzer runs an ordered set of named checkers over a GraphIR
 * circuit and returns a combined Report. The default registry covers
 * the structural invariants every pipeline boundary relies on:
 *
 *   structure    edge targets in range, width/token/vocabulary
 *                consistency, activity coefficients, combinational
 *                cycle detection with the vertices of one offending
 *                cycle (Graph::validate)
 *   drivers      multi-driven registers/ports/unary units, dangling
 *                (undriven) combinational operators, arity oddities
 *   widths       the §3.1 width rule: no operator may be declared
 *                narrower than the data it consumes
 *   liveness     dead logic (values never observed at a register or
 *                port) and unreachable vertices
 *   registers    floating and degenerate self-loop registers
 *
 * Dataset-side checks (circuit-path legality, label sanity, train/test
 * leakage) and the vocabulary self-check live here too so that the
 * gen/core pipelines and the sns_lint tool share one implementation.
 */

#ifndef SNS_VERIFY_ANALYZER_HH
#define SNS_VERIFY_ANALYZER_HH

#include <optional>
#include <string>
#include <vector>

#include "graphir/graph.hh"
#include "util/container.hh"
#include "verify/diagnostics.hh"

namespace sns::verify {

/** A named graph checker registered with the analyzer. */
struct GraphChecker
{
    std::string name;         ///< registry key, e.g. "cycles"
    std::string description;  ///< one-line purpose
    void (*run)(const graphir::Graph &, Report &);
};

/** Pass-manager over GraphIR checkers. */
class GraphAnalyzer
{
  public:
    /** An analyzer pre-loaded with the default checker registry. */
    GraphAnalyzer();

    /** Register an extra checker (appended after the defaults). */
    void addChecker(GraphChecker checker);

    /** Drop a registered checker by name (no-op if absent). */
    void disableChecker(const std::string &name);

    /** The current registry, in execution order. */
    const std::vector<GraphChecker> &checkers() const { return checkers_; }

    /** Run every registered checker over the graph. */
    Report run(const graphir::Graph &graph) const;

    /** The default checker registry. */
    static std::vector<GraphChecker> defaultCheckers();

  private:
    std::vector<GraphChecker> checkers_;
};

/** @name Individual graph checkers (exposed for tests and tools)
 * @{
 */
void checkStructure(const graphir::Graph &graph, Report &report);
void checkDrivers(const graphir::Graph &graph, Report &report);
void checkWidths(const graphir::Graph &graph, Report &report);
void checkLiveness(const graphir::Graph &graph, Report &report);
void checkRegisters(const graphir::Graph &graph, Report &report);
/** @} */

/**
 * Vocabulary self-check: every (type, legal width) pair must round-trip
 * id -> string -> id, and the id space must be dense and collision-free.
 */
Report checkVocabularyRoundTrip();

/**
 * Circuit-path legality (the structured generalization of
 * gen::isValidCircuitPath): length bounds, circuit-token range,
 * endpoint first/last, combinational interior.
 *
 * @param where location prefix for diagnostics, e.g. "path 12"
 */
Report checkPath(const std::vector<graphir::TokenId> &tokens,
                 size_t max_length = 512,
                 const std::string &where = "path");

/** Label sanity: finite, non-negative area/power, positive timing. */
Report checkLabels(double timing_ps, double area_um2, double power_mw,
                   const std::string &where);

/**
 * Train/test leakage: no base family (or design name) may appear on
 * both sides of a split (§4.1 fairness rule). Comparison is by a
 * deterministic hash of the name so huge splits stay cheap.
 */
Report checkSplit(const std::vector<std::string> &train_names,
                  const std::vector<std::string> &test_names);

/**
 * Lint a textual circuit-path dataset file. Format: one record per
 * line, '#' comments; whitespace-separated token names, ';', then
 * three labels (timing_ps area_um2 power_mw):
 *
 *     dff16 mul32 add32 dff32 ; 812.5 140.2 0.61
 */
Report lintPathDatasetFile(const std::string &path);

/** Synthesis-result sanity (S-RESULT): finite and non-negative. */
Report checkSynthesisResult(double timing_ps, double area_um2,
                            double power_mw, double gate_count,
                            const std::string &where);

/** @name Rank-shard payload prefix (docs/distributed.md §Checkpoints)
 * @{
 */

/** Producer tag every shard payload opens with (a u64-length string);
 * readers refuse any other producer up front, naming it. */
inline constexpr const char *kShardProducer = "sns-dist-trainer-v1";

/** Version of the shard payload layout after the producer string. */
inline constexpr uint32_t kShardLayoutVersion = 1;

/** The shard meta block that follows the layout version. */
struct ShardMeta
{
    uint32_t world = 0;
    uint32_t rank = 0;
    uint32_t grad_slices = 0;
    uint32_t param_count = 0; ///< model parameter tensors
    uint32_t owned_begin = 0; ///< first owned parameter tensor
    uint32_t owned_end = 0;   ///< one past the last owned tensor
    uint64_t config_fp = 0;
    uint64_t split_fp = 0;
    int64_t completed_epoch = 0;
    int64_t total_epochs = 0;
};

/**
 * The one decoder of the shard prefix at `in`, for the trainer and
 * lint. nullopt quietly when the payload does not open with
 * kShardProducer (`producer` gets what it does), or with a
 * C-SHARD-TRUNCATED / C-SHARD-META error for a short or unknown meta.
 */
std::optional<ShardMeta> decodeShardMeta(ByteReader &in, Report &report,
                                         const std::string &where,
                                         std::string *producer = nullptr);

/**
 * C-SHARD-META for one shard: a power-of-two world, rank inside it,
 * power-of-two grad_slices divisible by the world, the owned range
 * inside param_count, and completed_epoch in [0, total_epochs).
 * Findings are located at `where`, plus each field's byte offset when
 * `meta_offset` (the file offset of the layout version) is given.
 */
void checkShardMeta(const ShardMeta &meta, Report &report,
                    const std::string &where,
                    std::optional<uint64_t> meta_offset = std::nullopt);

/** Identity in a shard file name, ckpt-EEEEEE-rRRofWW.ckpt. */
struct ShardName
{
    int epoch = 0;
    int rank = 0;
    int world = 0;
};

/** Parse a shard file name (path or basename); nullopt for anything
 * else, or for a rank outside its world. */
std::optional<ShardName> parseShardName(const std::string &file);
/** @} */

/**
 * Validate a training-checkpoint container ("SNSC", C-* rules) without
 * parsing the payload: magic, version, declared payload length against
 * the actual file size, and the FNV-1a payload hash. When the payload
 * announces the sns::dist shard producer, the self-describing shard
 * meta block is linted too (C-SHARD-TRUNCATED / C-SHARD-META: layout,
 * world/rank/slice admissibility, owned-range bounds, file-name
 * agreement). This is the structural check `sns_lint file.ckpt` runs;
 * a checkpoint that passes may still be refused by the trainer
 * (fingerprint mismatch), but one that fails here is unreadable —
 * truncated, corrupt, or not a checkpoint at all.
 */
Report checkCheckpointFile(const std::string &path);

} // namespace sns::verify

#endif // SNS_VERIFY_ANALYZER_HH
