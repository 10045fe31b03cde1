#include "nn/tensor.h"

#include <cmath>

#include "core/dispatch.h"
#include "util/check.h"

namespace alphaevolve::nn {
namespace {

// The float kernels ride the same dispatched variant tables as the executor
// (core/kernels_impl.inc defines nn_matvec / nn_mattvec / nn_addouter with
// these functions' exact accumulation contracts, so the variant choice can
// never change a trained model's bits — only its throughput). Detected once.
const core::KernelTable& Table() {
  static const core::KernelTable& table = core::DetectedKernelTable();
  return table;
}

}  // namespace

Mat Mat::Xavier(int r, int c, Rng& rng) {
  Mat m(r, c);
  const double bound = std::sqrt(6.0 / (r + c));
  for (auto& x : m.data) {
    x = static_cast<float>(rng.Uniform(-bound, bound));
  }
  return m;
}

void MatVec(const Mat& w, const float* x, float* out, bool accumulate) {
  Table().nn_matvec(w.data.data(), w.rows, w.cols, x, out, accumulate);
}

void MatTVec(const Mat& w, const float* x, float* out, bool accumulate) {
  Table().nn_mattvec(w.data.data(), w.rows, w.cols, x, out, accumulate);
}

void AddOuter(Mat& g, const float* a, const float* b) {
  Table().nn_addouter(g.data.data(), g.rows, g.cols, a, b);
}

Adam::Adam(size_t size, double lr, double beta1, double beta2, double eps)
    : m_(size, 0.f), v_(size, 0.f), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {}

void Adam::Step(float* param, const float* grad) {
  ++step_;
  const double bc1 = 1.0 - std::pow(beta1_, step_);
  const double bc2 = 1.0 - std::pow(beta2_, step_);
  for (size_t i = 0; i < m_.size(); ++i) {
    const double g = grad[i];
    m_[i] = static_cast<float>(beta1_ * m_[i] + (1.0 - beta1_) * g);
    v_[i] = static_cast<float>(beta2_ * v_[i] + (1.0 - beta2_) * g * g);
    const double mhat = m_[i] / bc1;
    const double vhat = v_[i] / bc2;
    param[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
  }
}

}  // namespace alphaevolve::nn
