#ifndef ALPHAEVOLVE_TESTS_REFERENCE_EXECUTOR_H_
#define ALPHAEVOLVE_TESTS_REFERENCE_EXECUTOR_H_

// The executor's reference semantics, for tests only: a serial switch
// interpreter that runs one instruction at a time over every task. It is
// the oracle core::Executor's fused plan must match bit for bit
// (fused_parity_test, executor_test), so it shares none of the plan's
// machinery: no lowering, blocks or kernel table. It keeps its own
// copies of the rank/demean arithmetic and of the three dense kernels, and
// takes the plain route wherever the executor takes a shortcut:
//  - m0 is refreshed through Dataset::FillInputMatrix before every predict,
//    whatever the program reads;
//  - the ts_rank history ring is zeroed and recorded on every Run;
//  - random-init ops stamp their draw ids serially as they execute.
// A new op needs a case here as well as its fused lowering.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "core/instruction.h"
#include "core/opcode.h"
#include "core/program.h"
#include "market/dataset.h"
#include "util/check.h"
#include "util/rng.h"

namespace alphaevolve::testutil {

// ---- dense kernels ---------------------------------------------------------
// Their contracts define what every per-ISA variant in
// core/kernels_impl.inc must reproduce bit for bit.

/// Output rows per matmul tile: one streamed b-row feeds this many
/// accumulator rows, so b makes n/kMatMulRowTile passes through cache
/// instead of n.
inline constexpr int kMatMulRowTile = 4;

/// out = a × b (n×n, row-major), row-tiled and autovectorization-friendly.
///
/// Bit-identical to the naive ijk triple loop: every output element (i, j)
/// starts at 0.0 and accumulates a[i,q] * b[q,j] for q = 0..n-1 in that
/// exact order — the tiling only reorders *which element* is advanced next,
/// never the accumulation sequence within an element. The inner j loop is a
/// unit-stride axpy over a row of b, which compilers vectorize without any
/// FP relaxation. `out` must not alias `a` or `b` (callers pass scratch or
/// a distinct destination).
inline void MatMulBlocked(const double* a, const double* b, double* out,
                          int n) {
  for (int i0 = 0; i0 < n; i0 += kMatMulRowTile) {
    const int i1 = std::min(n, i0 + kMatMulRowTile);
    for (int i = i0; i < i1; ++i) std::fill_n(out + i * n, n, 0.0);
    for (int q = 0; q < n; ++q) {
      const double* bq = b + q * n;
      for (int i = i0; i < i1; ++i) {
        const double aiq = a[i * n + q];
        double* o = out + i * n;
        for (int j = 0; j < n; ++j) o[j] += aiq * bq[j];
      }
    }
  }
}

/// out = a · x (n×n times n), in-order per-row accumulation (bit-identical
/// to the naive loop; the row dot stays sequential because vectorizing an
/// FP reduction would reorder the sum). `out` must not alias `x`.
inline void MatVecInOrder(const double* a, const double* x, double* out,
                          int n) {
  for (int i = 0; i < n; ++i) {
    const double* row = a + i * n;
    double acc = 0.0;
    for (int j = 0; j < n; ++j) acc += row[j] * x[j];
    out[i] = acc;
  }
}

/// out = aᵀ (n×n, row-major). Pure data movement — bitwise exact by
/// construction. `out` must not alias `a`.
inline void TransposeInto(const double* a, double* out, int n) {
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) out[j * n + i] = a[i * n + j];
  }
}

// ---- reference executor ----------------------------------------------------

/// Predictions of one reference Run: core::ExecutionResult without the
/// watchdog.
struct ReferenceResult {
  bool valid = true;  ///< false → a prediction went non-finite.
  std::vector<std::vector<double>> valid_preds;  ///< [valid-date idx][task]
  std::vector<std::vector<double>> test_preds;   ///< [test-date idx][task]
};

/// Runs an alpha over every task of a dataset in lockstep, with the phases
/// of core::Executor::Run under the default ExecutorConfig: zero memory and
/// run Setup; per training date (one epoch) refresh m0, Predict,
/// s0 ← label, Update, record history; per validation (then test) date
/// refresh m0, Predict, record s1 and history.
class ReferenceExecutor {
 public:
  /// Trailing-history capacity per scalar address (core::kHistoryCap).
  static constexpr int kHistoryCap = 16;

  explicit ReferenceExecutor(const market::Dataset& dataset);

  /// core::Executor::Run(program, seed) with every date and the test split.
  ReferenceResult Run(const core::AlphaProgram& program, uint64_t seed);

 private:
  using Instruction = core::Instruction;
  using Op = core::Op;

  double* Scalars(int task) { return scalars_.data() + task * num_scalars_; }
  double* Vec(int task, int i) {
    return vectors_.data() +
           (static_cast<size_t>(task) * num_vectors_ + i) * n_;
  }
  double* Mat(int task, int i) {
    return matrices_.data() +
           (static_cast<size_t>(task) * num_matrices_ + i) * n_ * n_;
  }

  void ZeroMemory();
  void RefreshInputs(int date);
  void RecordHistory();
  bool PredictionsFinite();
  /// Runs `instrs` in program order: each instruction over every task.
  void ExecComponent(const std::vector<Instruction>& instrs);
  /// Executes one element-wise instruction for every task.
  void ExecInstruction(const Instruction& ins);
  /// Gather → per-group rank/demean → scatter, over the whole universe.
  void ExecRelation(const Instruction& ins);
  /// Rank/demean over one group's members, reading rel_in_ and writing
  /// rel_out_ at member indices only.
  void RankGroup(const std::vector<int>& members);
  void DemeanGroup(const std::vector<int>& members);

  const market::Dataset& dataset_;
  int num_tasks_;
  int n_;  // feature/window dimension (f == w)
  int num_scalars_, num_vectors_, num_matrices_;

  // Counter-based random-op state: one draw id per random-op execution.
  uint64_t run_seed_ = 0;
  uint64_t draw_counter_ = 0;

  // Structure-of-arrays task state, task-major.
  std::vector<double> scalars_;
  std::vector<double> vectors_;
  std::vector<double> matrices_;
  std::vector<double> scratch_;  // one n*n temp (matmul/matvec/transpose)

  // ts_rank history ring: [task][slot][scalar addr].
  std::vector<double> history_;
  int hist_size_ = 0;
  int hist_head_ = 0;

  // Relation-op scratch.
  std::vector<double> rel_in_;
  std::vector<double> rel_out_;
  std::vector<int> order_;
  std::vector<int> all_tasks_;
};

/// Heaviside step: 1 for positive, 0 otherwise (paper's evolved alphas use
/// heaviside(x, 1) with this convention).
inline double Step(double x) { return x > 0.0 ? 1.0 : 0.0; }

inline ReferenceExecutor::ReferenceExecutor(const market::Dataset& dataset)
    : dataset_(dataset),
      num_tasks_(dataset.num_tasks()),
      n_(dataset.window()),
      num_scalars_(core::ProgramLimits{}.num_scalars),
      num_vectors_(core::ProgramLimits{}.num_vectors),
      num_matrices_(core::ProgramLimits{}.num_matrices) {
  AE_CHECK(dataset.num_features() == dataset.window());
  scalars_.resize(static_cast<size_t>(num_tasks_) * num_scalars_);
  vectors_.resize(static_cast<size_t>(num_tasks_) * num_vectors_ * n_);
  matrices_.resize(static_cast<size_t>(num_tasks_) * num_matrices_ * n_ * n_);
  scratch_.resize(static_cast<size_t>(n_) * n_);
  history_.resize(static_cast<size_t>(num_tasks_) * kHistoryCap * num_scalars_);
  rel_in_.resize(static_cast<size_t>(num_tasks_));
  rel_out_.resize(static_cast<size_t>(num_tasks_));
  order_.resize(static_cast<size_t>(num_tasks_));
  all_tasks_.resize(static_cast<size_t>(num_tasks_));
  std::iota(all_tasks_.begin(), all_tasks_.end(), 0);
}

inline void ReferenceExecutor::ZeroMemory() {
  std::fill(scalars_.begin(), scalars_.end(), 0.0);
  std::fill(vectors_.begin(), vectors_.end(), 0.0);
  std::fill(matrices_.begin(), matrices_.end(), 0.0);
  std::fill(history_.begin(), history_.end(), 0.0);
  hist_size_ = 0;
  hist_head_ = 0;
}

inline void ReferenceExecutor::RefreshInputs(int date) {
  for (int k = 0; k < num_tasks_; ++k) {
    dataset_.FillInputMatrix(k, date, Mat(k, core::kInputMatrix));
  }
}

inline void ReferenceExecutor::RecordHistory() {
  for (int k = 0; k < num_tasks_; ++k) {
    double* slot = history_.data() +
                   (static_cast<size_t>(k) * kHistoryCap + hist_head_) *
                       num_scalars_;
    const double* s = Scalars(k);
    std::copy(s, s + num_scalars_, slot);
  }
  hist_head_ = (hist_head_ + 1) % kHistoryCap;
  hist_size_ = std::min(hist_size_ + 1, kHistoryCap);
}

inline bool ReferenceExecutor::PredictionsFinite() {
  for (int k = 0; k < num_tasks_; ++k) {
    if (!std::isfinite(Scalars(k)[core::kPredictionScalar])) return false;
  }
  return true;
}

inline void ReferenceExecutor::RankGroup(const std::vector<int>& members) {
  const int g = static_cast<int>(members.size());
  if (g == 1) {
    rel_out_[static_cast<size_t>(members[0])] = 0.5;
    return;
  }
  // Rank members by value (ties broken by task id via stability). NaNs
  // sort after every finite value and are mutually equivalent — a raw
  // `<` on doubles containing NaN is not a strict weak ordering, which
  // std::stable_sort requires.
  int* order = order_.data();
  for (int i = 0; i < g; ++i) order[i] = members[static_cast<size_t>(i)];
  std::stable_sort(order, order + g, [&](int a, int b) {
    const double va = rel_in_[static_cast<size_t>(a)];
    const double vb = rel_in_[static_cast<size_t>(b)];
    const bool nan_a = std::isnan(va);
    const bool nan_b = std::isnan(vb);
    if (nan_a || nan_b) return !nan_a && nan_b;
    return va < vb;
  });
  // Average-tie fractional ranks normalized to [0, 1].
  int i = 0;
  while (i < g) {
    int j = i;
    while (j + 1 < g && rel_in_[static_cast<size_t>(order[j + 1])] ==
                            rel_in_[static_cast<size_t>(order[i])]) {
      ++j;
    }
    const double avg_rank = 0.5 * (i + j);  // 0-based average position
    const double normalized = avg_rank / static_cast<double>(g - 1);
    for (int q = i; q <= j; ++q) {
      rel_out_[static_cast<size_t>(order[q])] = normalized;
    }
    i = j + 1;
  }
}

inline void ReferenceExecutor::DemeanGroup(const std::vector<int>& members) {
  double sum = 0.0;
  for (const int t : members) sum += rel_in_[static_cast<size_t>(t)];
  const double mean = sum / static_cast<double>(members.size());
  for (const int t : members) {
    rel_out_[static_cast<size_t>(t)] = rel_in_[static_cast<size_t>(t)] - mean;
  }
}

inline void ReferenceExecutor::ExecRelation(const Instruction& ins) {
  // Gather the input scalar from every task at this date.
  for (int k = 0; k < num_tasks_; ++k) {
    rel_in_[static_cast<size_t>(k)] = Scalars(k)[ins.in1];
  }

  switch (ins.op) {
    case Op::kRank:
      RankGroup(all_tasks_);
      break;
    case Op::kRelationRank:
    case Op::kRelationDemean: {
      const bool by_sector = ins.idx0 == 0;
      const int groups = by_sector ? dataset_.num_sector_groups()
                                   : dataset_.num_industry_groups();
      for (int gi = 0; gi < groups; ++gi) {
        const std::vector<int>& members =
            by_sector ? dataset_.sector_tasks(gi) : dataset_.industry_tasks(gi);
        if (ins.op == Op::kRelationRank) {
          RankGroup(members);
        } else {
          DemeanGroup(members);
        }
      }
      break;
    }
    default:
      AE_CHECK(false);
  }

  // Scatter the result back to every task.
  for (int k = 0; k < num_tasks_; ++k) {
    Scalars(k)[ins.out] = rel_out_[static_cast<size_t>(k)];
  }
}

inline void ReferenceExecutor::ExecInstruction(const Instruction& ins) {
  const int n = n_;
  const int nn = n * n;
  // Draw ids are stamped serially, one per random-op execution, in program
  // order: the (seed, draw id) key the fused plan stamps per segment.
  const uint64_t draw_id =
      core::GetOpInfo(ins.op).is_random ? draw_counter_++ : 0;

  switch (ins.op) {
    case Op::kNoOp:
      return;

    // ---- scalar ----------------------------------------------------------
    case Op::kScalarConst:
      for (int k = 0; k < num_tasks_; ++k) Scalars(k)[ins.out] = ins.imm0;
      return;
    case Op::kScalarAdd:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = s[ins.in1] + s[ins.in2];
      }
      return;
    case Op::kScalarSub:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = s[ins.in1] - s[ins.in2];
      }
      return;
    case Op::kScalarMul:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = s[ins.in1] * s[ins.in2];
      }
      return;
    case Op::kScalarDiv:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = s[ins.in1] / s[ins.in2];
      }
      return;
    case Op::kScalarAbs:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::abs(s[ins.in1]);
      }
      return;
    case Op::kScalarReciprocal:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = 1.0 / s[ins.in1];
      }
      return;
    case Op::kScalarSin:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::sin(s[ins.in1]);
      }
      return;
    case Op::kScalarCos:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::cos(s[ins.in1]);
      }
      return;
    case Op::kScalarTan:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::tan(s[ins.in1]);
      }
      return;
    case Op::kScalarArcSin:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::asin(s[ins.in1]);
      }
      return;
    case Op::kScalarArcCos:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::acos(s[ins.in1]);
      }
      return;
    case Op::kScalarArcTan:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::atan(s[ins.in1]);
      }
      return;
    case Op::kScalarExp:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::exp(s[ins.in1]);
      }
      return;
    case Op::kScalarLog:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::log(s[ins.in1]);
      }
      return;
    case Op::kScalarHeaviside:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = Step(s[ins.in1]);
      }
      return;
    case Op::kScalarMin:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::min(s[ins.in1], s[ins.in2]);
      }
      return;
    case Op::kScalarMax:
      for (int k = 0; k < num_tasks_; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::max(s[ins.in1], s[ins.in2]);
      }
      return;

    // ---- vector ----------------------------------------------------------
    case Op::kVectorConst:
      for (int k = 0; k < num_tasks_; ++k) {
        std::fill_n(Vec(k, ins.out), n, ins.imm0);
      }
      return;
    case Op::kVectorScale:
      for (int k = 0; k < num_tasks_; ++k) {
        const double c = Scalars(k)[ins.in2];
        const double* a = Vec(k, ins.in1);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = c * a[i];
      }
      return;
    case Op::kVectorBroadcast:
      for (int k = 0; k < num_tasks_; ++k) {
        std::fill_n(Vec(k, ins.out), n, Scalars(k)[ins.in1]);
      }
      return;
    case Op::kVectorReciprocal:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = 1.0 / a[i];
      }
      return;
    case Op::kVectorAbs:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = std::abs(a[i]);
      }
      return;
    case Op::kVectorAdd:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = a[i] + b[i];
      }
      return;
    case Op::kVectorSub:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = a[i] - b[i];
      }
      return;
    case Op::kVectorMul:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = a[i] * b[i];
      }
      return;
    case Op::kVectorDiv:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = a[i] / b[i];
      }
      return;
    case Op::kVectorMin:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = std::min(a[i], b[i]);
      }
      return;
    case Op::kVectorMax:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = std::max(a[i], b[i]);
      }
      return;
    case Op::kVectorHeaviside:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = Step(a[i]);
      }
      return;
    case Op::kVectorDot:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double acc = 0.0;
        for (int i = 0; i < n; ++i) acc += a[i] * b[i];
        Scalars(k)[ins.out] = acc;
      }
      return;
    case Op::kVectorOuter:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < n; ++j) o[i * n + j] = a[i] * b[j];
        }
      }
      return;
    case Op::kVectorNorm:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        double acc = 0.0;
        for (int i = 0; i < n; ++i) acc += a[i] * a[i];
        Scalars(k)[ins.out] = std::sqrt(acc);
      }
      return;
    case Op::kVectorMean:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        double acc = 0.0;
        for (int i = 0; i < n; ++i) acc += a[i];
        Scalars(k)[ins.out] = acc / n;
      }
      return;
    case Op::kVectorStd:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        double mean = 0.0;
        for (int i = 0; i < n; ++i) mean += a[i];
        mean /= n;
        double ss = 0.0;
        for (int i = 0; i < n; ++i) ss += (a[i] - mean) * (a[i] - mean);
        Scalars(k)[ins.out] = std::sqrt(ss / n);
      }
      return;
    case Op::kVectorUniform: {
      const CounterRng crng(run_seed_, draw_id);
      for (int k = 0; k < num_tasks_; ++k) {
        double* o = Vec(k, ins.out);
        const uint64_t base =
            static_cast<uint64_t>(k) * static_cast<uint64_t>(n);
        for (int i = 0; i < n; ++i) {
          o[i] = crng.UniformAt(base + static_cast<uint64_t>(i), ins.imm0,
                                ins.imm1);
        }
      }
      return;
    }
    case Op::kVectorGaussian: {
      const CounterRng crng(run_seed_, draw_id);
      for (int k = 0; k < num_tasks_; ++k) {
        double* o = Vec(k, ins.out);
        const uint64_t base =
            static_cast<uint64_t>(k) * static_cast<uint64_t>(n);
        for (int i = 0; i < n; ++i) {
          o[i] = crng.GaussianAt(base + static_cast<uint64_t>(i), ins.imm0,
                                 ins.imm1);
        }
      }
      return;
    }

    // ---- matrix ----------------------------------------------------------
    case Op::kMatrixConst:
      for (int k = 0; k < num_tasks_; ++k) {
        std::fill_n(Mat(k, ins.out), nn, ins.imm0);
      }
      return;
    case Op::kMatrixScale:
      for (int k = 0; k < num_tasks_; ++k) {
        const double c = Scalars(k)[ins.in2];
        const double* a = Mat(k, ins.in1);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = c * a[i];
      }
      return;
    case Op::kMatrixReciprocal:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = 1.0 / a[i];
      }
      return;
    case Op::kMatrixAbs:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = std::abs(a[i]);
      }
      return;
    case Op::kMatrixAdd:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        const double* b = Mat(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = a[i] + b[i];
      }
      return;
    case Op::kMatrixSub:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        const double* b = Mat(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = a[i] - b[i];
      }
      return;
    case Op::kMatrixMul:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        const double* b = Mat(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = a[i] * b[i];
      }
      return;
    case Op::kMatrixDiv:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        const double* b = Mat(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = a[i] / b[i];
      }
      return;
    case Op::kMatrixMin:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        const double* b = Mat(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = std::min(a[i], b[i]);
      }
      return;
    case Op::kMatrixMax:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        const double* b = Mat(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = std::max(a[i], b[i]);
      }
      return;
    case Op::kMatrixHeaviside:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = Step(a[i]);
      }
      return;
    // Every dense op goes through scratch, aliasing or not; the fused
    // path's non-aliasing variants write the destination directly, which
    // moves identical bits.
    case Op::kMatrixMatMul:
      for (int k = 0; k < num_tasks_; ++k) {
        double* scratch = scratch_.data();
        MatMulBlocked(Mat(k, ins.in1), Mat(k, ins.in2), scratch, n);
        std::copy(scratch, scratch + nn, Mat(k, ins.out));
      }
      return;
    case Op::kMatrixVectorProduct:
      for (int k = 0; k < num_tasks_; ++k) {
        double* scratch = scratch_.data();  // first n entries
        MatVecInOrder(Mat(k, ins.in1), Vec(k, ins.in2), scratch, n);
        std::copy(scratch, scratch + n, Vec(k, ins.out));
      }
      return;
    case Op::kMatrixTranspose:
      for (int k = 0; k < num_tasks_; ++k) {
        double* scratch = scratch_.data();
        TransposeInto(Mat(k, ins.in1), scratch, n);
        std::copy(scratch, scratch + nn, Mat(k, ins.out));
      }
      return;
    case Op::kMatrixNorm:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        double acc = 0.0;
        for (int i = 0; i < nn; ++i) acc += a[i] * a[i];
        Scalars(k)[ins.out] = std::sqrt(acc);
      }
      return;
    case Op::kMatrixNormAxis:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        double* o = Vec(k, ins.out);
        if (ins.idx0 == 0) {  // norm down each column
          for (int j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int i = 0; i < n; ++i) acc += a[i * n + j] * a[i * n + j];
            o[j] = std::sqrt(acc);
          }
        } else {  // norm along each row
          for (int i = 0; i < n; ++i) {
            double acc = 0.0;
            for (int j = 0; j < n; ++j) acc += a[i * n + j] * a[i * n + j];
            o[i] = std::sqrt(acc);
          }
        }
      }
      return;
    case Op::kMatrixMean:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        double acc = 0.0;
        for (int i = 0; i < nn; ++i) acc += a[i];
        Scalars(k)[ins.out] = acc / nn;
      }
      return;
    case Op::kMatrixStd:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        double mean = 0.0;
        for (int i = 0; i < nn; ++i) mean += a[i];
        mean /= nn;
        double ss = 0.0;
        for (int i = 0; i < nn; ++i) ss += (a[i] - mean) * (a[i] - mean);
        Scalars(k)[ins.out] = std::sqrt(ss / nn);
      }
      return;
    case Op::kMatrixMeanAxis:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Mat(k, ins.in1);
        double* o = Vec(k, ins.out);
        if (ins.idx0 == 0) {  // mean down each column
          for (int j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int i = 0; i < n; ++i) acc += a[i * n + j];
            o[j] = acc / n;
          }
        } else {
          for (int i = 0; i < n; ++i) {
            double acc = 0.0;
            for (int j = 0; j < n; ++j) acc += a[i * n + j];
            o[i] = acc / n;
          }
        }
      }
      return;
    case Op::kMatrixBroadcast:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* a = Vec(k, ins.in1);
        double* o = Mat(k, ins.out);
        if (ins.idx0 == 0) {  // each row is a copy of v
          for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) o[i * n + j] = a[j];
          }
        } else {  // each column is a copy of v
          for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) o[i * n + j] = a[i];
          }
        }
      }
      return;
    case Op::kMatrixUniform: {
      const CounterRng crng(run_seed_, draw_id);
      for (int k = 0; k < num_tasks_; ++k) {
        double* o = Mat(k, ins.out);
        const uint64_t base =
            static_cast<uint64_t>(k) * static_cast<uint64_t>(nn);
        for (int i = 0; i < nn; ++i) {
          o[i] = crng.UniformAt(base + static_cast<uint64_t>(i), ins.imm0,
                                ins.imm1);
        }
      }
      return;
    }
    case Op::kMatrixGaussian: {
      const CounterRng crng(run_seed_, draw_id);
      for (int k = 0; k < num_tasks_; ++k) {
        double* o = Mat(k, ins.out);
        const uint64_t base =
            static_cast<uint64_t>(k) * static_cast<uint64_t>(nn);
        for (int i = 0; i < nn; ++i) {
          o[i] = crng.GaussianAt(base + static_cast<uint64_t>(i), ins.imm0,
                                 ins.imm1);
        }
      }
      return;
    }

    // ---- extraction --------------------------------------------------------
    case Op::kGetScalar:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* m0 = Mat(k, core::kInputMatrix);
        Scalars(k)[ins.out] = m0[(ins.idx0 % n) * n + (ins.idx1 % n)];
      }
      return;
    case Op::kGetRow:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* m0 = Mat(k, core::kInputMatrix);
        std::copy_n(m0 + (ins.idx0 % n) * n, n, Vec(k, ins.out));
      }
      return;
    case Op::kGetColumn:
      for (int k = 0; k < num_tasks_; ++k) {
        const double* m0 = Mat(k, core::kInputMatrix);
        double* o = Vec(k, ins.out);
        const int col = ins.idx0 % n;
        for (int i = 0; i < n; ++i) o[i] = m0[i * n + col];
      }
      return;

    // ---- time series -------------------------------------------------------
    case Op::kTsRank: {
      const int w = std::max<int>(2, std::min<int>(ins.idx0, kHistoryCap));
      for (int k = 0; k < num_tasks_; ++k) {
        const double cur = Scalars(k)[ins.in1];
        const int avail = std::min(hist_size_, w);
        if (avail == 0) {
          Scalars(k)[ins.out] = 0.5;
          continue;
        }
        int less = 0, equal = 0;
        for (int d = 1; d <= avail; ++d) {
          const int slot = (hist_head_ - d + kHistoryCap) % kHistoryCap;
          const double past =
              history_[(static_cast<size_t>(k) * kHistoryCap + slot) *
                           num_scalars_ +
                       ins.in1];
          if (past < cur) ++less;
          else if (past == cur) ++equal;
        }
        // Fractional rank of `cur` among {past window ∪ cur}, in [0, 1].
        Scalars(k)[ins.out] =
            (less + 0.5 * equal) / static_cast<double>(avail);
      }
      return;
    }

    // ---- relation (handled by ExecRelation, never reaches here) ----------
    case Op::kRank:
    case Op::kRelationRank:
    case Op::kRelationDemean:
    case Op::kNumOps:
      break;
  }
  AE_CHECK_MSG(false, "unhandled op");
}

inline void ReferenceExecutor::ExecComponent(
    const std::vector<Instruction>& instrs) {
  for (const Instruction& ins : instrs) {
    if (core::GetOpInfo(ins.op).is_relation) {
      ExecRelation(ins);
    } else {
      ExecInstruction(ins);
    }
  }
}

inline ReferenceResult ReferenceExecutor::Run(const core::AlphaProgram& program,
                                              uint64_t seed) {
  run_seed_ = seed;
  draw_counter_ = 0;
  ZeroMemory();
  ExecComponent(program.setup);

  ReferenceResult result;
  for (const int date : dataset_.dates(market::Split::kTrain)) {
    RefreshInputs(date);
    ExecComponent(program.predict);
    if (!PredictionsFinite()) {
      result.valid = false;
      return result;
    }
    for (int k = 0; k < num_tasks_; ++k) {
      Scalars(k)[core::kLabelScalar] = dataset_.Label(k, date);
    }
    ExecComponent(program.update);
    RecordHistory();
  }

  auto infer = [&](market::Split split,
                   std::vector<std::vector<double>>& out) -> bool {
    for (const int date : dataset_.dates(split)) {
      RefreshInputs(date);
      ExecComponent(program.predict);
      if (!PredictionsFinite()) return false;
      std::vector<double> row(static_cast<size_t>(num_tasks_));
      for (int k = 0; k < num_tasks_; ++k) {
        row[static_cast<size_t>(k)] = Scalars(k)[core::kPredictionScalar];
      }
      out.push_back(std::move(row));
      RecordHistory();
    }
    return true;
  };
  // A non-finite prediction stops the Run where it happens, leaving the rows
  // recorded so far, as in core::Executor::Run.
  result.valid = infer(market::Split::kValid, result.valid_preds) &&
                 infer(market::Split::kTest, result.test_preds);
  return result;
}

}  // namespace alphaevolve::testutil

#endif  // ALPHAEVOLVE_TESTS_REFERENCE_EXECUTOR_H_
