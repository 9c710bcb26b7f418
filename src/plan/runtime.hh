/**
 * @file
 * Planned execution: compile a verified plan against a model's
 * parameters and run batches through it with zero per-batch heap
 * allocations (docs/plan.md).
 *
 * compilePlan() runs the full static-analysis pipeline
 * (verify::checkPlan + computePlanLayout) and enforce()s the result,
 * validates every WeightRef against the actual parameter tensors
 * (rule P-MODEL), and pre-packs each weight matrix into the 16-wide
 * B-panel layout the SIMD gemm consumes — packing happens once at
 * load, never per batch.
 *
 * CompiledPlan::run() then executes the op list over a thread-local
 * grow-only float arena at the offsets the layout pass proved
 * non-overlapping, running each row over its own length rather than
 * the batch's padded one. Every op replicates the corresponding
 * module-walk kernel loop *exactly* (same accumulation order, same
 * float/double promotions), and padded positions never reach a real
 * row, so planned output is bitwise-identical to the walk —
 * tests/test_plan.cc and bench/fig07_runtime.cc gate on that.
 *
 * A CompiledPlan snapshots nothing: it aliases the parameter tensors
 * it was compiled against (keeping them alive via Variable handles)
 * but pre-packed panels are copies frozen at compile time. Training a
 * model after compiling a plan for it therefore invalidates the plan;
 * like the path cache, planned execution assumes frozen weights —
 * re-compile after any parameter update.
 */

#ifndef SNS_PLAN_RUNTIME_HH
#define SNS_PLAN_RUNTIME_HH

#include <atomic>
#include <memory>
#include <vector>

#include "plan/ir.hh"
#include "tensor/autograd.hh"
#include "tensor/qgemm.hh"
#include "verify/plan_check.hh"

namespace sns::plan {

class Calibrator;

/**
 * Global kill switch for planned execution, also settable via the
 * SNS_PLAN environment variable ("0"/"off"/"false" disable it).
 * Defaults to enabled. Bound plans are ignored while disabled — the
 * module walk runs instead, which is what the bitwise A/B tests and
 * `tools/run_lint.sh` toggle.
 */
bool planEnabled();
void setPlanEnabled(bool enabled);

/** A verified plan bound to a concrete model's parameters. */
class CompiledPlan
{
  public:
    /** The verified IR this plan executes. */
    const Plan &plan() const { return plan_; }

    /** The arena layout proved by the static analyzer. */
    const verify::PlanLayout &layout() const { return layout_; }

    /** Fingerprint of the model the plan was traced from. */
    uint64_t fingerprint() const { return plan_.fingerprint; }

    /** Largest batch run() accepts. */
    int batchMax() const { return plan_.config.batch_max; }

    /**
     * Execute one padded batch. `ids` is row-major [batch, time],
     * `lengths` the per-row valid lengths (as produced by the
     * predictor's pack()). Each row runs over its own length, not
     * over `time` (docs/plan.md, "Ragged execution"); a zero-length
     * row, and every row while a calibration observer is attached,
     * runs over the full `time`. Returns a pointer to the [batch, 3]
     * output region inside a thread-local arena — valid until the
     * next run() on the same thread. Requires batch <= batchMax(),
     * time <= config.max_positions and 0 <= lengths[b] <= time.
     */
    const float *run(const std::vector<int> &ids,
                     const std::vector<int> &lengths, int batch,
                     int time) const;

    /** True when the plan carries int8 scales and run() executes the
     * quantized Gemm kernels for the side-table ops. */
    bool quantized() const { return !plan_.quant.empty(); }

    /**
     * Attach (or detach, with nullptr) an activation-absmax observer:
     * while set, every run() executes the whole padded batch and
     * feeds each Gemm op's input rows, padded positions included, to
     * calibrator->observe() before multiplying. Observation never
     * changes the computed values of real rows. Logically const — the plan's
     * semantics are untouched — so a calibration pass can run through
     * the same shared const handle the predictor executes.
     */
    void setCalibrationObserver(Calibrator *calibrator) const
    {
        calibrator_.store(calibrator, std::memory_order_release);
    }

  private:
    friend std::shared_ptr<const CompiledPlan>
    compilePlan(const Plan &plan,
                const std::vector<tensor::Variable> &params);

    Plan plan_;
    verify::PlanLayout layout_;
    /** Keep-alive handles; weight_data_ aliases these tensors. */
    std::vector<tensor::Variable> params_;
    /** Raw value pointer per weight-table entry. */
    std::vector<const float *> weight_data_;
    /** Pre-packed B panels per weight-table entry (Matrix role only;
     * empty vectors otherwise). */
    std::vector<std::vector<float>> packed_;

    /** One compiled int8 kernel per quantized Gemm: the weight matrix
     * re-quantized and packed for tensor::qgemmI32, plus the fused
     * dequantization multipliers x_scale * w_scales[j]. */
    struct QuantKernel
    {
        float inv_x_scale = 0.0f;        ///< 1 / x_scale (quantize)
        tensor::QuantPanels panels;      ///< s8 weights, K4-interleaved
        std::vector<float> mult;         ///< per-column dequant factor
    };
    /** Indexed by op position; null for full-precision ops. */
    std::vector<std::unique_ptr<QuantKernel>> qkernels_;

    /** Calibration observer (normally null; see the setter). */
    mutable std::atomic<Calibrator *> calibrator_{nullptr};
};

/**
 * Verify `plan` (checkPlan + computePlanLayout, enforce()d under the
 * ambient SNS_VERIFY mode), validate it against `params` — the
 * model's parameters() in canonical flat order — and pre-pack the
 * weight matrices. Throws verify::VerifyError (under the default
 * Fatal mode) when the plan is malformed or does not match the
 * parameters.
 */
std::shared_ptr<const CompiledPlan>
compilePlan(const Plan &plan, const std::vector<tensor::Variable> &params);

} // namespace sns::plan

#endif // SNS_PLAN_RUNTIME_HH
