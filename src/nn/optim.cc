#include "nn/optim.hh"

#include <cmath>

#include "util/logging.hh"

namespace sns::nn {

Optimizer::Optimizer(std::vector<Variable> params)
    : params_(std::move(params))
{
    for (const auto &param : params_) {
        SNS_ASSERT(param.requiresGrad(),
                   "optimizer parameter does not require grad");
    }
}

void
Optimizer::zeroGrad()
{
    for (auto &param : params_)
        param.zeroGrad();
}

Sgd::Sgd(std::vector<Variable> params, double lr, double momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum)
{
    velocity_.reserve(params_.size());
    for (const auto &param : params_)
        velocity_.emplace_back(param.value().shape());
}

void
Sgd::step()
{
    for (size_t i = 0; i < params_.size(); ++i) {
        auto &param = params_[i];
        if (!param.hasGrad())
            continue;
        Tensor &vel = velocity_[i];
        vel.scaleInPlace(static_cast<float>(momentum_));
        vel.addScaled(param.grad(), 1.0f);
        param.valueMutable().addScaled(vel, static_cast<float>(-lr_));
    }
}

Adam::Adam(std::vector<Variable> params, double lr, double beta1,
           double beta2, double eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      owned_end_(params_.size())
{
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const auto &param : params_) {
        m_.emplace_back(param.value().shape());
        v_.emplace_back(param.value().shape());
    }
}

void
Adam::shardMoments(size_t begin, size_t end)
{
    SNS_ASSERT(begin <= end && end <= params_.size(),
               "Adam shard range outside the parameter list");
    owned_begin_ = begin;
    owned_end_ = end;
    for (size_t i = 0; i < params_.size(); ++i) {
        if (i >= begin && i < end)
            continue;
        m_[i] = Tensor();
        v_[i] = Tensor();
    }
}

const Tensor &
Adam::firstMoment(size_t i) const
{
    SNS_ASSERT(i >= owned_begin_ && i < owned_end_,
               "first moment of a parameter this shard does not own");
    return m_[i];
}

const Tensor &
Adam::secondMoment(size_t i) const
{
    SNS_ASSERT(i >= owned_begin_ && i < owned_end_,
               "second moment of a parameter this shard does not own");
    return v_[i];
}

void
Adam::setMoments(size_t i, const Tensor &m, const Tensor &v)
{
    SNS_ASSERT(i >= owned_begin_ && i < owned_end_,
               "moments of a parameter this shard does not own");
    SNS_ASSERT(m.numel() == params_[i].value().numel() &&
                   v.numel() == params_[i].value().numel(),
               "restored Adam moments do not match the parameter shape");
    m_[i] = m;
    v_[i] = v;
}

void
Adam::step()
{
    ++step_count_;
    const double bias1 = 1.0 - std::pow(beta1_, step_count_);
    const double bias2 = 1.0 - std::pow(beta2_, step_count_);
    const float alpha =
        static_cast<float>(lr_ * std::sqrt(bias2) / bias1);

    for (size_t i = owned_begin_; i < owned_end_; ++i) {
        auto &param = params_[i];
        if (!param.hasGrad())
            continue;
        const Tensor &grad = param.grad();
        Tensor &m = m_[i];
        Tensor &v = v_[i];
        Tensor &value = param.valueMutable();
        const float b1 = static_cast<float>(beta1_);
        const float b2 = static_cast<float>(beta2_);
        for (size_t j = 0; j < value.numel(); ++j) {
            const float g = grad[j];
            m[j] = b1 * m[j] + (1.0f - b1) * g;
            v[j] = b2 * v[j] + (1.0f - b2) * g * g;
            value[j] -= alpha * m[j] /
                        (std::sqrt(v[j]) + static_cast<float>(eps_));
        }
    }
}

double
clipGradNorm(const std::vector<Variable> &params, double max_norm)
{
    double sq = 0.0;
    for (const auto &param : params) {
        if (!param.hasGrad())
            continue;
        const Tensor &grad = param.grad();
        for (size_t i = 0; i < grad.numel(); ++i)
            sq += static_cast<double>(grad[i]) * grad[i];
    }
    const double norm = std::sqrt(sq);
    if (norm > max_norm && norm > 0.0) {
        const double factor = max_norm / norm;
        for (auto param : params)
            param.scaleGrad(factor);
    }
    return norm;
}

} // namespace sns::nn
