/**
 * @file
 * What the workloads share: run options, seeded input generators, the
 * model every serving workload predicts with, held-out accuracy, the
 * untimed warm-up, and the traced local prediction pass that rebuilds
 * a prediction from the public call of each layer.
 */

#ifndef SNSBENCH_FIXTURES_HH
#define SNSBENCH_FIXTURES_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/datasets.hh"
#include "core/predictor.hh"
#include "report.hh"

namespace snsbench {

/** What main() hands a workload. */
struct RunOptions
{
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;   ///< private scratch directory inside the checkout
    std::string trace_file; ///< Chrome trace output of a traced run
};

/** sns::par width of the prediction workloads and the training world
 * product (pool width x world). */
inline constexpr int kPoolWidth = 4;

/** Set-ups timed per run; setup_s is their median. */
inline constexpr int kSetupRepeats = 3;

/** Stateless 64-bit mix of two values (splitmix64 finaliser). */
uint64_t mixSeed(uint64_t a, uint64_t b);

/**
 * SNL text of a design made of `chains` independent combinational
 * chains of `depth` random ops and widths between registers. The op and
 * width at every level come from (seed, index), so token sequences are
 * unique per design and no two designs share a cached path.
 */
std::string chainDesign(uint64_t seed, uint64_t index, int chains,
                        int depth);

/**
 * SNL text of the 12-module FIR design of the edit loop (one `module`
 * scope per FIR block). `variant` shifts every block's width so
 * different sessions hold different designs; block `edited` takes its
 * tap count and width from `edit`, every other block is fixed.
 */
std::string firDesign(int variant, int edited, int edit);

/** The smoke designs with synthesis ground truth, split by base family
 * into a training and a held-out half. */
struct EvalSet
{
    sns::core::HardwareDesignDataset dataset;
    std::vector<size_t> train_idx;
    std::vector<size_t> test_idx;
};

EvalSet buildEvalSet();

/** The eval set's training designs (the int8 calibration shard). */
std::vector<const sns::graphir::Graph *> trainGraphs(const EvalSet &set);

/**
 * Train the model the serving workloads predict with and save it to
 * `directory`: the Table-2 Circuitformer, trained 2 epochs on the
 * eval set's training half from a fixed seed. Prediction speed depends
 * only on the model's shape, and a fixed seed keeps accuracy identical
 * across runs and workload seeds.
 */
void trainServingModel(const EvalSet &set, const std::string &directory);

/** Held-out accuracy of `predictor` at `precision`: MAEP per target,
 * mean RRSE, and for a quantized predictor the worst-target int8 - fp64
 * MAEP difference. */
void reportAccuracy(Report &report, const sns::core::SnsPredictor &predictor,
                    const EvalSet &set, sns::core::Precision precision);

/**
 * The untimed warm-up before timing: two predictBatch passes over
 * `graphs` with `options`. The first pass on fresh pool threads runs
 * ~2.6x slower than later ones (per-thread arenas grow, caches fill),
 * so every workload pays it here instead of in its first sample.
 */
void warmUp(const sns::core::SnsPredictor &predictor,
            std::span<const sns::graphir::Graph *const> graphs,
            const sns::core::PredictOptions &options);

/** Pointers to every graph of a vector (predictBatch's input form). */
std::vector<const sns::graphir::Graph *>
pointers(const std::vector<sns::graphir::Graph> &graphs);

/** Counts the traced pass accumulates next to its spans. */
struct TracedCounts
{
    uint64_t designs = 0;
    uint64_t paths = 0;
    uint64_t path_tokens = 0;
    uint64_t lookups = 0;
};

/**
 * The traced local pass: predict `graphs` the way predictBatch does —
 * one pool task per design — but from the public call of each layer,
 * each inside its own span: PathSampler::sample, the cache probe and
 * insert, Circuitformer::predict (with the bound plan's run() timed
 * separately on the same padded batches), reduceAggregates and the
 * heads. The caller checks the result bitwise against predictBatch.
 */
std::vector<sns::core::SnsPrediction>
tracedPredict(const sns::core::SnsPredictor &predictor,
              std::span<const sns::graphir::Graph *const> graphs,
              const sns::core::PredictOptions &options, uint64_t request_base,
              TracedCounts &counts);

/**
 * Per-layer metrics of the prediction pipeline from the installed
 * tracer's spans and the traced pass's counts: netlist, sampler,
 * cache, core, plan, and the tensor kernels measured at the plan's
 * feed-forward shape.
 */
void reportPredictionLayers(Report &report,
                            const sns::core::SnsPredictor &predictor,
                            sns::core::Precision precision,
                            const TracedCounts &counts);

} // namespace snsbench

#endif // SNSBENCH_FIXTURES_HH
