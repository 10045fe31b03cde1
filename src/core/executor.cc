#include "core/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "core/opcode.h"
#include "obs/telemetry.h"
#include "util/check.h"

namespace alphaevolve::core {
namespace {

/// Which input path each Run takes, and whether it keeps the ts_rank ring:
/// the tape share of a workload is 1 - input_matrix_runs / runs, its ring
/// share history_runs / runs.
struct ExecutorCounters {
  obs::Counter& runs;
  obs::Counter& input_matrix_runs;  ///< m0 filled every date
  obs::Counter& history_runs;       ///< ts_rank history ring recorded

  static ExecutorCounters& Get() {
    static ExecutorCounters* c = [] {
      auto& reg = obs::MetricsRegistry::Default();
      return new ExecutorCounters{reg.GetCounter("executor.runs"),
                                  reg.GetCounter("executor.input_matrix_runs"),
                                  reg.GetCounter("executor.history_runs")};
    }();
    return *c;
  }
};

/// Auto block size of one fused segment: an op streams up to 3 operands
/// per task, so size the block to keep 3 of the segment's widest operands
/// (`widest` elements: 1, n or n*n) resident in roughly half of a 32 KiB L1
/// while it runs the whole segment. At n = 13 that is 4 tasks for matrix
/// segments, 52 for vector and 256 (the cap) for scalar-only ones; a
/// scalar-only segment at 4 tasks would spend its time on per-block
/// dispatch instead.
int AutoBlockSize(int widest) {
  const int per_task_bytes = 3 * widest * static_cast<int>(sizeof(double));
  const int block = 16 * 1024 / std::max(1, per_task_bytes);
  return std::clamp(block, 4, 256);
}

/// True iff some instruction of `instrs` is `op`.
bool ContainsOp(const std::vector<Instruction>& instrs, Op op) {
  return std::any_of(instrs.begin(), instrs.end(),
                     [op](const Instruction& ins) { return ins.op == op; });
}

}  // namespace

Executor::Executor(const market::Dataset& dataset, ExecutorConfig config,
                   const KernelTable& kernels)
    : dataset_(dataset),
      config_(config),
      num_tasks_(dataset.num_tasks()),
      n_(dataset.window()),
      num_scalars_(config.limits.num_scalars),
      num_vectors_(config.limits.num_vectors),
      num_matrices_(config.limits.num_matrices),
      ktable_(&kernels) {
  AE_CHECK(num_scalars_ > 1 && num_vectors_ > 0 && num_matrices_ > 0);
  scalars_.resize(static_cast<size_t>(num_tasks_) * num_scalars_);
  vectors_.resize(static_cast<size_t>(num_tasks_) * num_vectors_ * n_);
  matrices_.resize(static_cast<size_t>(num_tasks_) * num_matrices_ * n_ * n_);
  history_.resize(static_cast<size_t>(num_tasks_) * kHistoryCap * num_scalars_);
  rel_in_.resize(static_cast<size_t>(num_tasks_));
  rel_out_.resize(static_cast<size_t>(num_tasks_));
  rel_order_.resize(static_cast<size_t>(num_tasks_));
  all_tasks_.resize(static_cast<size_t>(num_tasks_));
  std::iota(all_tasks_.begin(), all_tasks_.end(), 0);
  // Tape rows for the extraction kernels, resolved once through the view's
  // task → storage-row map (a Subset view reads its own tasks' rows).
  feature_rows_.resize(static_cast<size_t>(num_tasks_));
  for (int k = 0; k < num_tasks_; ++k) {
    feature_rows_[static_cast<size_t>(k)] = dataset.FeatureRow(k, 0);
  }

  // Pre-partitioned group views for the relation plans: borrowed pointers
  // into the dataset's (stable) group vectors. kRank ranks all tasks as one
  // group.
  rel_groups_.global.push_back({all_tasks_.data(), num_tasks_});
  rel_groups_.sector.reserve(
      static_cast<size_t>(dataset.num_sector_groups()));
  for (int g = 0; g < dataset.num_sector_groups(); ++g) {
    const auto& members = dataset.sector_tasks(g);
    rel_groups_.sector.push_back(
        {members.data(), static_cast<int>(members.size())});
  }
  rel_groups_.industry.reserve(
      static_cast<size_t>(dataset.num_industry_groups()));
  for (int g = 0; g < dataset.num_industry_groups(); ++g) {
    const auto& members = dataset.industry_tasks(g);
    rel_groups_.industry.push_back(
        {members.data(), static_cast<int>(members.size())});
  }

  // One n*n temp: tasks run one at a time, so they all share it.
  mat_scratch_.resize(static_cast<size_t>(n_) * n_);
}

void Executor::ZeroMemory(bool history) {
  std::fill(scalars_.begin(), scalars_.end(), 0.0);
  std::fill(vectors_.begin(), vectors_.end(), 0.0);
  std::fill(matrices_.begin(), matrices_.end(), 0.0);
  if (history) std::fill(history_.begin(), history_.end(), 0.0);
  hist_size_ = 0;
  hist_head_ = 0;
}

void Executor::RefreshInputs(int date) {
  for (int k = 0; k < num_tasks_; ++k) {
    dataset_.FillInputMatrix(k, date, Mat(k, kInputMatrix));
  }
}

void Executor::RecordHistory() {
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

bool Executor::PredictionsFinite() {
  for (int k = 0; k < num_tasks_; ++k) {
    if (!std::isfinite(Scalars(k)[kPredictionScalar])) return false;
  }
  return true;
}

void Executor::RankGroup(const int* members, int count) {
  const int g = count;
  int* order = rel_order_.data();
  if (g == 1) {
    rel_out_[static_cast<size_t>(members[0])] = 0.5;
    return;
  }
  // Rank members by value (ties broken by task id via stability). NaNs
  // sort after every finite value and are mutually equivalent — a raw
  // `<` on doubles containing NaN is not a strict weak ordering, which
  // std::stable_sort requires.
  for (int i = 0; i < g; ++i) order[i] = members[i];
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

void Executor::DemeanGroup(const int* members, int count) {
  double sum = 0.0;
  for (int i = 0; i < count; ++i) {
    sum += rel_in_[static_cast<size_t>(members[i])];
  }
  const double mean = sum / static_cast<double>(count);
  for (int i = 0; i < count; ++i) {
    const int t = members[i];
    rel_out_[static_cast<size_t>(t)] = rel_in_[static_cast<size_t>(t)] - mean;
  }
}

void Executor::ExecRelationPlan(const RelationPlan& plan) {
  for (const RelationGroup& group : *plan.groups) {
    for (int i = 0; i < group.size; ++i) {
      const int t = group.members[i];
      rel_in_[static_cast<size_t>(t)] = Scalars(t)[plan.in1];
    }
    if (plan.op == Op::kRelationDemean) {
      DemeanGroup(group.members, group.size);
    } else {
      RankGroup(group.members, group.size);
    }
    for (int i = 0; i < group.size; ++i) {
      const int t = group.members[i];
      Scalars(t)[plan.out] = rel_out_[static_cast<size_t>(t)];
    }
  }
}

void Executor::ExecFusedSegment(FusedSegment& segment, int refresh_date) {
  // Draw ids are stamped serially, one per random-op *execution*, so
  // (seed, draw id) never depends on how the segment walks its tasks.
  for (const int idx : segment.random_ops) {
    segment.ops[static_cast<size_t>(idx)].draw_id = draw_counter_++;
  }
  // Blocks are sized per segment from its widest operand; the fused m0
  // fill writes a whole matrix per task, so a segment carrying it counts
  // as n*n.
  const int block = AutoBlockSize(refresh_date >= 0 ? n_ * n_ : segment.widest);
  MicroCtx ctx;
  ctx.scalars = scalars_.data();
  ctx.vectors = vectors_.data();
  ctx.matrices = matrices_.data();
  ctx.history = history_.data();
  ctx.scratch = mat_scratch_.data();
  ctx.scalar_stride = static_cast<size_t>(num_scalars_);
  ctx.vec_stride = static_cast<size_t>(num_vectors_) * n_;
  ctx.mat_stride = static_cast<size_t>(num_matrices_) * n_ * n_;
  ctx.hist_stride = static_cast<size_t>(kHistoryCap) * num_scalars_;
  ctx.num_scalars = num_scalars_;
  ctx.hist_cap = kHistoryCap;
  ctx.hist_size = hist_size_;
  ctx.hist_head = hist_head_;
  ctx.n = n_;
  ctx.run_seed = run_seed_;
  ctx.feature_rows = feature_rows_.data();
  ctx.day_stride = dataset_.day_stride();
  ctx.date0 = window_start_;
  // Block-at-a-time: a cache-resident block of tasks runs the whole
  // segment before the next block is touched. A fused input refresh fills
  // the block's m0 matrices right before the segment consumes them —
  // still warm — instead of a separate whole-universe sweep per date.
  // The fill is fetched from the dispatched kernel table like every other
  // fused kernel (a pure float→double widening copy of
  // Dataset::FillInputMatrix, bitwise exact on any variant).
  const size_t first_col =
      static_cast<size_t>(refresh_date - n_ + 1) * ctx.day_stride;
  for (int b0 = 0; b0 < num_tasks_; b0 += block) {
    const int b1 = std::min(num_tasks_, b0 + block);
    if (refresh_date >= 0) {
      for (int k = b0; k < b1; ++k) {
        ktable_->fill_input(feature_rows_[static_cast<size_t>(k)] + first_col,
                            ctx.day_stride, n_, Mat(k, kInputMatrix));
      }
    }
    for (const MicroOp& op : segment.ops) op.fn(ctx, op, b0, b1);
  }
}

void Executor::ExecCompiled(CompiledComponent& compiled, int refresh_date) {
  // The fused refresh needs a leading element-wise segment to ride on; a
  // component that is empty or opens with a relation op (which reads
  // scalars the refresh does not touch — but later segments read m0) gets
  // the standalone sweep instead. Either way every piece sees a fully
  // refreshed m0, exactly like a refresh-then-run.
  bool fuse_refresh = refresh_date >= 0;
  if (fuse_refresh &&
      (compiled.pieces.empty() || compiled.pieces.front().is_relation)) {
    RefreshInputs(refresh_date);
    fuse_refresh = false;
  }
  for (const CompiledComponent::Piece& piece : compiled.pieces) {
    if (piece.is_relation) {
      ExecRelationPlan(
          compiled.relation_plans[static_cast<size_t>(piece.index)]);
    } else {
      ExecFusedSegment(compiled.segments[static_cast<size_t>(piece.index)],
                       fuse_refresh ? refresh_date : -1);
      fuse_refresh = false;
    }
  }
}

ExecutionResult Executor::Run(const AlphaProgram& program, uint64_t seed,
                              bool include_test, int limit_train,
                              int limit_valid, double budget_seconds) {
  run_seed_ = seed;
  draw_counter_ = 0;
  // The ts_rank history ring is only read by a predict or update ts_rank (a
  // setup ts_rank runs before the first record and reads 0.5), so a program
  // without one neither zeroes nor records it. Either way ts_rank reads
  // only slots this Run wrote: hist_size_ restarts at 0 every Run.
  const bool history = ContainsOp(program.predict, Op::kTsRank) ||
                       ContainsOp(program.update, Op::kTsRank);
  ZeroMemory(history);

  // Evaluation watchdog (off at budget 0, the default): one steady_clock
  // read per date boundary against a fixed deadline.
  const bool budgeted = budget_seconds > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(budgeted ? budget_seconds : 0.0));
  const auto over_budget = [budgeted, deadline]() {
    return budgeted && std::chrono::steady_clock::now() >= deadline;
  };

  // Input path. m0 holds X from the predict refresh until the next one, so
  // when no predict or update instruction names m0 as a matrix, X is only
  // ever read through extraction ops: those then read the tape directly and
  // m0 is never filled. Setup runs before the first refresh and always
  // reads the task's m0 (zero, or whatever setup wrote there).
  const bool tape =
      !NamesInputMatrix(program.predict) && !NamesInputMatrix(program.update);
  ExecutorCounters& counters = ExecutorCounters::Get();
  counters.runs.Add();
  if (!tape) counters.input_matrix_runs.Add();
  if (history) counters.history_runs.Add();

  // The once-per-Run lowering that the date loop amortizes.
  CompileComponent(program.setup, n_, kHistoryCap, *ktable_, rel_groups_,
                   /*tape_extraction=*/false, &compiled_[0]);
  CompileComponent(program.predict, n_, kHistoryCap, *ktable_, rel_groups_,
                   tape, &compiled_[1]);
  CompileComponent(program.update, n_, kHistoryCap, *ktable_, rel_groups_,
                   tape, &compiled_[2]);
  // Per-date input + predict. The tape path only moves the extraction
  // window; the input-matrix path folds the m0 refresh into the predict
  // component's first segment (one task-state sweep instead of two).
  const auto predict_at = [&](int date) {
    if (tape) window_start_ = date - n_ + 1;
    ExecCompiled(compiled_[1], tape ? -1 : date);
  };

  ExecCompiled(compiled_[0]);

  ExecutionResult result;
  const auto& train_dates = dataset_.dates(market::Split::kTrain);
  const int num_train =
      limit_train < 0
          ? static_cast<int>(train_dates.size())
          : std::min<int>(limit_train, static_cast<int>(train_dates.size()));
  for (int di = 0; di < num_train; ++di) {
    if (over_budget()) {
      result.valid = false;
      result.timed_out = true;
      return result;
    }
    const int date = train_dates[static_cast<size_t>(di)];
    predict_at(date);
    if (!PredictionsFinite()) {
      result.valid = false;
      return result;
    }
    for (int k = 0; k < num_tasks_; ++k) {
      Scalars(k)[kLabelScalar] = dataset_.Label(k, date);
    }
    ExecCompiled(compiled_[2]);
    if (history) RecordHistory();
  }

  auto infer = [&](market::Split split, int limit,
                   std::vector<std::vector<double>>& out) -> bool {
    const auto& dates = dataset_.dates(split);
    const int num =
        limit < 0 ? static_cast<int>(dates.size())
                  : std::min<int>(limit, static_cast<int>(dates.size()));
    out.reserve(static_cast<size_t>(num));
    for (int di = 0; di < num; ++di) {
      if (over_budget()) {
        result.timed_out = true;
        return false;
      }
      const int date = dates[static_cast<size_t>(di)];
      predict_at(date);
      if (!PredictionsFinite()) return false;
      std::vector<double> row(static_cast<size_t>(num_tasks_));
      for (int k = 0; k < num_tasks_; ++k) {
        row[static_cast<size_t>(k)] = Scalars(k)[kPredictionScalar];
      }
      out.push_back(std::move(row));
      if (history) RecordHistory();
    }
    return true;
  };

  if (!infer(market::Split::kValid, limit_valid, result.valid_preds)) {
    result.valid = false;
    return result;
  }
  if (include_test &&
      !infer(market::Split::kTest, -1, result.test_preds)) {
    result.valid = false;
    return result;
  }
  return result;
}

}  // namespace alphaevolve::core
