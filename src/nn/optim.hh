/**
 * @file
 * Optimizers: SGD with momentum and Adam (Kingma & Ba 2014) — the two
 * the paper trains with (Table 6).
 */

#ifndef SNS_NN_OPTIM_HH
#define SNS_NN_OPTIM_HH

#include <vector>

#include "tensor/autograd.hh"

namespace sns::nn {

using tensor::Tensor;
using tensor::Variable;

/** Base optimizer over a fixed parameter list. */
class Optimizer
{
  public:
    explicit Optimizer(std::vector<Variable> params);
    virtual ~Optimizer() = default;

    /** Apply one update using the accumulated gradients. */
    virtual void step() = 0;

    /** Clear all parameter gradients. */
    void zeroGrad();

    /** Number of parameters managed. */
    size_t size() const { return params_.size(); }

  protected:
    std::vector<Variable> params_;
};

/** Stochastic gradient descent with classical momentum. */
class Sgd : public Optimizer
{
  public:
    Sgd(std::vector<Variable> params, double lr, double momentum = 0.9);

    void step() override;

    double learningRate() const { return lr_; }
    void setLearningRate(double lr) { lr_ = lr; }

  private:
    double lr_;
    double momentum_;
    std::vector<Tensor> velocity_;
};

/** Adam with bias correction. */
class Adam : public Optimizer
{
  public:
    Adam(std::vector<Variable> params, double lr, double beta1 = 0.9,
         double beta2 = 0.999, double eps = 1e-8);

    void step() override;

    double learningRate() const { return lr_; }
    void setLearningRate(double lr) { lr_ = lr; }

    /** @name ZeRO moment sharding (docs/distributed.md)
     * Restrict the Adam moments — and step()'s update — to the
     * parameter tensors [begin, end). Moments outside the owned range
     * are released (that is the memory saving: each rank holds 1/N of
     * the optimizer state). The caller is responsible for applying the
     * other ranks' updates, e.g. by allgathering weights afterwards.
     * @{
     */
    void shardMoments(size_t begin, size_t end);
    /** Moments of one owned parameter, by GLOBAL parameter index. */
    const Tensor &firstMoment(size_t i) const;
    const Tensor &secondMoment(size_t i) const;
    /** Restore the moments of one owned parameter (checkpoint merge;
     * shapes must match the parameter). */
    void setMoments(size_t i, const Tensor &m, const Tensor &v);
    long stepCount() const { return step_count_; }
    void setStepCount(long count) { step_count_ = count; }
    /** @} */

  private:
    double lr_;
    double beta1_;
    double beta2_;
    double eps_;
    long step_count_ = 0;
    size_t owned_begin_ = 0;
    size_t owned_end_ = 0; ///< set to params_.size() by the ctor
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
};

/**
 * Scale all gradients so their global L2 norm is at most max_norm.
 * @return the pre-clip norm
 */
double clipGradNorm(const std::vector<Variable> &params, double max_norm);

} // namespace sns::nn

#endif // SNS_NN_OPTIM_HH
