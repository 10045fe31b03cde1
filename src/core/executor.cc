#include "core/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>

#include "core/kernels.h"
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
  obs::Counter& input_matrix_runs;  ///< m0 filled every date (or interpreter)
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

/// Heaviside step: 1 for positive, 0 otherwise (paper's evolved alphas use
/// heaviside(x, 1) with this convention).
inline double Step(double x) { return x > 0.0 ? 1.0 : 0.0; }

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

/// Parks a persistent worker arena on the pool for the duration of one Run:
/// per-segment fan-out becomes an epoch bump on the arena barrier instead
/// of re-submitting pool tasks. Helpers are capped at the configured shard
/// fan-out; the driving thread is always the +1 lane.
struct RunArenaScope {
  explicit RunArenaScope(Executor& e) : executor(e) {
    if (e.num_shards_ > 1 && e.pool_ != nullptr) {
      const int helpers =
          std::min(e.config_.intra_candidate_threads, e.num_shards_) - 1;
      arena.emplace(e.pool_, helpers);
      e.arena_ = &*arena;
    }
  }
  ~RunArenaScope() { executor.arena_ = nullptr; }

  Executor& executor;
  std::optional<ShardArena> arena;
};

Executor::Executor(const market::Dataset& dataset, ExecutorConfig config,
                   ThreadPool* shared_pool)
    : dataset_(dataset),
      config_(config),
      num_tasks_(dataset.num_tasks()),
      n_(dataset.window()),
      num_scalars_(config.limits.num_scalars),
      num_vectors_(config.limits.num_vectors),
      num_matrices_(config.limits.num_matrices) {
  AE_CHECK(dataset.num_features() == dataset.window());
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

  // Sector/industry groups partition the tasks, so prefix sums give each
  // group a disjoint rel_order_ slice for race-free group-parallel ranking.
  sector_order_offset_.resize(static_cast<size_t>(dataset.num_sector_groups()));
  int offset = 0;
  for (int g = 0; g < dataset.num_sector_groups(); ++g) {
    sector_order_offset_[static_cast<size_t>(g)] = offset;
    offset += static_cast<int>(dataset.sector_tasks(g).size());
  }
  industry_order_offset_.resize(
      static_cast<size_t>(dataset.num_industry_groups()));
  offset = 0;
  for (int g = 0; g < dataset.num_industry_groups(); ++g) {
    industry_order_offset_[static_cast<size_t>(g)] = offset;
    offset += static_cast<int>(dataset.industry_tasks(g).size());
  }

  // Pre-partitioned group views for the in-plan relation lowering: borrowed
  // pointers into the dataset's (stable) group vectors plus each group's
  // disjoint rank-order scratch slice. kRank ranks all tasks as one group.
  rel_groups_.global.push_back({all_tasks_.data(), num_tasks_, 0});
  rel_groups_.sector.reserve(
      static_cast<size_t>(dataset.num_sector_groups()));
  for (int g = 0; g < dataset.num_sector_groups(); ++g) {
    const auto& members = dataset.sector_tasks(g);
    rel_groups_.sector.push_back({members.data(),
                                  static_cast<int>(members.size()),
                                  sector_order_offset_[static_cast<size_t>(g)]});
  }
  rel_groups_.industry.reserve(
      static_cast<size_t>(dataset.num_industry_groups()));
  for (int g = 0; g < dataset.num_industry_groups(); ++g) {
    const auto& members = dataset.industry_tasks(g);
    rel_groups_.industry.push_back(
        {members.data(), static_cast<int>(members.size()),
         industry_order_offset_[static_cast<size_t>(g)]});
  }

  // Shard fan-out: `intra_candidate_threads` workers, each handling
  // `shard_size` tasks per ParallelFor round. With an external pool the
  // executor never spawns threads of its own; standalone it owns a pool of
  // workers - 1 threads (the caller participates in every loop).
  const int workers = std::max(1, config_.intra_candidate_threads);
  if (shared_pool != nullptr) {
    pool_ = shared_pool;
  } else if (workers > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(workers - 1);
    pool_ = owned_pool_.get();
  }
  if (pool_ != nullptr && num_tasks_ > 1 && workers > 1) {
    shard_size_ = config_.shard_size > 0
                      ? config_.shard_size
                      : (num_tasks_ + workers - 1) / workers;
    shard_size_ = std::max(1, shard_size_);
    num_shards_ = (num_tasks_ + shard_size_ - 1) / shard_size_;
  }
  if (num_shards_ <= 1) {
    num_shards_ = 1;
    shard_size_ = std::max(1, num_tasks_);
  }
  // One n*n temp per shard: a shard works through its tasks sequentially,
  // so tasks can share a slice while shards never do.
  mat_scratch_.resize(static_cast<size_t>(num_shards_) * n_ * n_);

  fuse_ = config_.fuse_segments;
  // Resolve the per-ISA kernel table once: config override, then the
  // AE_KERNEL_VARIANT environment variable, then CPUID/HWCAP detection.
  ktable_ = &ResolveKernelTable(config_.kernel_variant);
}

void Executor::ZeroMemory(bool history) {
  std::fill(scalars_.begin(), scalars_.end(), 0.0);
  std::fill(vectors_.begin(), vectors_.end(), 0.0);
  std::fill(matrices_.begin(), matrices_.end(), 0.0);
  if (history) std::fill(history_.begin(), history_.end(), 0.0);
  hist_size_ = 0;
  hist_head_ = 0;
}

void Executor::ParallelForTasks(const std::function<void(int, int)>& fn) {
  if (num_shards_ <= 1 || pool_ == nullptr) {
    fn(0, num_tasks_);
    return;
  }
  ParallelForItems(num_shards_, [&](int s) {
    const int t0 = s * shard_size_;
    const int t1 = std::min(num_tasks_, t0 + shard_size_);
    fn(t0, t1);
  });
}

void Executor::ParallelForItems(int n, const std::function<void(int)>& fn) {
  // Inside a Run the arena's parked helpers take the round (one epoch bump);
  // outside one — or if the arena could not be set up — fall back to the
  // pool's queue-based ParallelFor. Identical results either way.
  if (arena_ != nullptr) {
    arena_->ParallelFor(n, fn);
  } else {
    pool_->ParallelFor(n, fn);
  }
}

void Executor::RefreshInputs(int date) {
  ParallelForTasks([&](int t0, int t1) {
    for (int k = t0; k < t1; ++k) {
      dataset_.FillInputMatrix(k, date, Mat(k, kInputMatrix));
    }
  });
}

// RecordHistory, PredictionsFinite and the relation gather/scatter copy a
// handful of doubles per task; a shard barrier costs more than the whole
// loop, so they stay serial (sharding them would be bit-identical anyway).
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

void Executor::RankGroup(const int* members, int count, int* order) {
  const int g = count;
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

void Executor::ExecRelation(const Instruction& ins) {
  // Gather the input scalar from every task at this date.
  for (int k = 0; k < num_tasks_; ++k) {
    rel_in_[static_cast<size_t>(k)] = Scalars(k)[ins.in1];
  }

  switch (ins.op) {
    case Op::kRank:
      RankGroup(all_tasks_.data(), num_tasks_, rel_order_.data());
      break;
    case Op::kRelationRank:
    case Op::kRelationDemean: {
      const bool by_sector = ins.idx0 == 0;
      const int groups = by_sector ? dataset_.num_sector_groups()
                                   : dataset_.num_industry_groups();
      auto run_group = [&](int gi) {
        const auto& members =
            by_sector ? dataset_.sector_tasks(gi) : dataset_.industry_tasks(gi);
        if (ins.op == Op::kRelationRank) {
          const int offset =
              by_sector ? sector_order_offset_[static_cast<size_t>(gi)]
                        : industry_order_offset_[static_cast<size_t>(gi)];
          RankGroup(members.data(), static_cast<int>(members.size()),
                    rel_order_.data() + offset);
        } else {
          DemeanGroup(members.data(), static_cast<int>(members.size()));
        }
      };
      // Groups are disjoint (distinct rel_out_ entries and rel_order_
      // slices), so they parallelize without synchronization; each group's
      // rank is computed identically regardless of scheduling. Small
      // universes stay serial: per-group work is tiny next to a barrier.
      if (num_shards_ > 1 && pool_ != nullptr && groups > 1 &&
          num_tasks_ >= config_.group_parallel_min_tasks) {
        ParallelForItems(groups, run_group);
      } else {
        for (int gi = 0; gi < groups; ++gi) run_group(gi);
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

void Executor::ExecRelationPlan(const RelationPlan& plan) {
  // In-plan relation execution: the whole op is one round over its
  // pre-partitioned groups. Each group's work item gathers its members'
  // input scalar, ranks or demeans, and scatters the result — the groups
  // partition the task set, so concurrent items touch disjoint rel_in_ /
  // rel_out_ / rel_order_ slices and disjoint task scalars by construction.
  // Per task, the arithmetic is the gather → RankGroup/DemeanGroup →
  // scatter sequence of ExecRelation exactly, so the two paths match
  // bit-for-bit; this one replaces two serial whole-universe sweeps plus a
  // group-only barrier round with a single arena epoch tick.
  const std::vector<RelationGroup>& groups = *plan.groups;
  const int num_groups = static_cast<int>(groups.size());
  auto run_group = [&](int gi) {
    const RelationGroup& group = groups[static_cast<size_t>(gi)];
    for (int i = 0; i < group.size; ++i) {
      const int t = group.members[i];
      rel_in_[static_cast<size_t>(t)] = Scalars(t)[plan.in1];
    }
    if (plan.op == Op::kRelationDemean) {
      DemeanGroup(group.members, group.size);
    } else {
      RankGroup(group.members, group.size,
                rel_order_.data() + group.order_offset);
    }
    for (int i = 0; i < group.size; ++i) {
      const int t = group.members[i];
      Scalars(t)[plan.out] = rel_out_[static_cast<size_t>(t)];
    }
  };
  // Same fan-out policy as ExecRelation: per-group work is tiny next to a
  // barrier on small universes (and kRank is always one global group).
  if (num_groups > 1 && num_shards_ > 1 && pool_ != nullptr &&
      num_tasks_ >= config_.group_parallel_min_tasks) {
    ParallelForItems(num_groups, run_group);
  } else {
    for (int gi = 0; gi < num_groups; ++gi) run_group(gi);
  }
}

void Executor::ExecInstructionRange(const Instruction& ins, int t0, int t1,
                                    uint64_t draw_id) {
  const int n = n_;
  const int nn = n * n;

  switch (ins.op) {
    case Op::kNoOp:
      return;

    // ---- scalar ----------------------------------------------------------
    case Op::kScalarConst:
      for (int k = t0; k < t1; ++k) Scalars(k)[ins.out] = ins.imm0;
      return;
    case Op::kScalarAdd:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = s[ins.in1] + s[ins.in2];
      }
      return;
    case Op::kScalarSub:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = s[ins.in1] - s[ins.in2];
      }
      return;
    case Op::kScalarMul:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = s[ins.in1] * s[ins.in2];
      }
      return;
    case Op::kScalarDiv:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = s[ins.in1] / s[ins.in2];
      }
      return;
    case Op::kScalarAbs:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::abs(s[ins.in1]);
      }
      return;
    case Op::kScalarReciprocal:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = 1.0 / s[ins.in1];
      }
      return;
    case Op::kScalarSin:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::sin(s[ins.in1]);
      }
      return;
    case Op::kScalarCos:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::cos(s[ins.in1]);
      }
      return;
    case Op::kScalarTan:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::tan(s[ins.in1]);
      }
      return;
    case Op::kScalarArcSin:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::asin(s[ins.in1]);
      }
      return;
    case Op::kScalarArcCos:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::acos(s[ins.in1]);
      }
      return;
    case Op::kScalarArcTan:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::atan(s[ins.in1]);
      }
      return;
    case Op::kScalarExp:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::exp(s[ins.in1]);
      }
      return;
    case Op::kScalarLog:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::log(s[ins.in1]);
      }
      return;
    case Op::kScalarHeaviside:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = Step(s[ins.in1]);
      }
      return;
    case Op::kScalarMin:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::min(s[ins.in1], s[ins.in2]);
      }
      return;
    case Op::kScalarMax:
      for (int k = t0; k < t1; ++k) {
        double* s = Scalars(k);
        s[ins.out] = std::max(s[ins.in1], s[ins.in2]);
      }
      return;

    // ---- vector ----------------------------------------------------------
    case Op::kVectorConst:
      for (int k = t0; k < t1; ++k) {
        std::fill_n(Vec(k, ins.out), n, ins.imm0);
      }
      return;
    case Op::kVectorScale:
      for (int k = t0; k < t1; ++k) {
        const double c = Scalars(k)[ins.in2];
        const double* a = Vec(k, ins.in1);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = c * a[i];
      }
      return;
    case Op::kVectorBroadcast:
      for (int k = t0; k < t1; ++k) {
        std::fill_n(Vec(k, ins.out), n, Scalars(k)[ins.in1]);
      }
      return;
    case Op::kVectorReciprocal:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = 1.0 / a[i];
      }
      return;
    case Op::kVectorAbs:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = std::abs(a[i]);
      }
      return;
    case Op::kVectorAdd:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = a[i] + b[i];
      }
      return;
    case Op::kVectorSub:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = a[i] - b[i];
      }
      return;
    case Op::kVectorMul:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = a[i] * b[i];
      }
      return;
    case Op::kVectorDiv:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = a[i] / b[i];
      }
      return;
    case Op::kVectorMin:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = std::min(a[i], b[i]);
      }
      return;
    case Op::kVectorMax:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = std::max(a[i], b[i]);
      }
      return;
    case Op::kVectorHeaviside:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        double* o = Vec(k, ins.out);
        for (int i = 0; i < n; ++i) o[i] = Step(a[i]);
      }
      return;
    case Op::kVectorDot:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double acc = 0.0;
        for (int i = 0; i < n; ++i) acc += a[i] * b[i];
        Scalars(k)[ins.out] = acc;
      }
      return;
    case Op::kVectorOuter:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        const double* b = Vec(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < n; ++j) o[i * n + j] = a[i] * b[j];
        }
      }
      return;
    case Op::kVectorNorm:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        double acc = 0.0;
        for (int i = 0; i < n; ++i) acc += a[i] * a[i];
        Scalars(k)[ins.out] = std::sqrt(acc);
      }
      return;
    case Op::kVectorMean:
      for (int k = t0; k < t1; ++k) {
        const double* a = Vec(k, ins.in1);
        double acc = 0.0;
        for (int i = 0; i < n; ++i) acc += a[i];
        Scalars(k)[ins.out] = acc / n;
      }
      return;
    case Op::kVectorStd:
      for (int k = t0; k < t1; ++k) {
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
      for (int k = t0; k < t1; ++k) {
        double* o = Vec(k, ins.out);
        const uint64_t base = static_cast<uint64_t>(k) * static_cast<uint64_t>(n);
        for (int i = 0; i < n; ++i) {
          o[i] = crng.UniformAt(base + static_cast<uint64_t>(i), ins.imm0,
                                ins.imm1);
        }
      }
      return;
    }
    case Op::kVectorGaussian: {
      const CounterRng crng(run_seed_, draw_id);
      for (int k = t0; k < t1; ++k) {
        double* o = Vec(k, ins.out);
        const uint64_t base = static_cast<uint64_t>(k) * static_cast<uint64_t>(n);
        for (int i = 0; i < n; ++i) {
          o[i] = crng.GaussianAt(base + static_cast<uint64_t>(i), ins.imm0,
                                 ins.imm1);
        }
      }
      return;
    }

    // ---- matrix ----------------------------------------------------------
    case Op::kMatrixConst:
      for (int k = t0; k < t1; ++k) std::fill_n(Mat(k, ins.out), nn, ins.imm0);
      return;
    case Op::kMatrixScale:
      for (int k = t0; k < t1; ++k) {
        const double c = Scalars(k)[ins.in2];
        const double* a = Mat(k, ins.in1);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = c * a[i];
      }
      return;
    case Op::kMatrixReciprocal:
      for (int k = t0; k < t1; ++k) {
        const double* a = Mat(k, ins.in1);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = 1.0 / a[i];
      }
      return;
    case Op::kMatrixAbs:
      for (int k = t0; k < t1; ++k) {
        const double* a = Mat(k, ins.in1);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = std::abs(a[i]);
      }
      return;
    case Op::kMatrixAdd:
      for (int k = t0; k < t1; ++k) {
        const double* a = Mat(k, ins.in1);
        const double* b = Mat(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = a[i] + b[i];
      }
      return;
    case Op::kMatrixSub:
      for (int k = t0; k < t1; ++k) {
        const double* a = Mat(k, ins.in1);
        const double* b = Mat(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = a[i] - b[i];
      }
      return;
    case Op::kMatrixMul:
      for (int k = t0; k < t1; ++k) {
        const double* a = Mat(k, ins.in1);
        const double* b = Mat(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = a[i] * b[i];
      }
      return;
    case Op::kMatrixDiv:
      for (int k = t0; k < t1; ++k) {
        const double* a = Mat(k, ins.in1);
        const double* b = Mat(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = a[i] / b[i];
      }
      return;
    case Op::kMatrixMin:
      for (int k = t0; k < t1; ++k) {
        const double* a = Mat(k, ins.in1);
        const double* b = Mat(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = std::min(a[i], b[i]);
      }
      return;
    case Op::kMatrixMax:
      for (int k = t0; k < t1; ++k) {
        const double* a = Mat(k, ins.in1);
        const double* b = Mat(k, ins.in2);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = std::max(a[i], b[i]);
      }
      return;
    case Op::kMatrixHeaviside:
      for (int k = t0; k < t1; ++k) {
        const double* a = Mat(k, ins.in1);
        double* o = Mat(k, ins.out);
        for (int i = 0; i < nn; ++i) o[i] = Step(a[i]);
      }
      return;
    // The three dense kernels are shared with the fused path (and its
    // non-aliasing direct variants); the scratch round-trip moves identical
    // bits, so the two paths still match bit-for-bit.
    case Op::kMatrixMatMul:
      for (int k = t0; k < t1; ++k) {
        double* scratch = Scratch(t0);
        MatMulBlocked(Mat(k, ins.in1), Mat(k, ins.in2), scratch, n);
        std::copy(scratch, scratch + nn, Mat(k, ins.out));
      }
      return;
    case Op::kMatrixVectorProduct:
      for (int k = t0; k < t1; ++k) {
        double* scratch = Scratch(t0);  // first n entries
        MatVecInOrder(Mat(k, ins.in1), Vec(k, ins.in2), scratch, n);
        std::copy(scratch, scratch + n, Vec(k, ins.out));
      }
      return;
    case Op::kMatrixTranspose:
      for (int k = t0; k < t1; ++k) {
        double* scratch = Scratch(t0);
        TransposeInto(Mat(k, ins.in1), scratch, n);
        std::copy(scratch, scratch + nn, Mat(k, ins.out));
      }
      return;
    case Op::kMatrixNorm:
      for (int k = t0; k < t1; ++k) {
        const double* a = Mat(k, ins.in1);
        double acc = 0.0;
        for (int i = 0; i < nn; ++i) acc += a[i] * a[i];
        Scalars(k)[ins.out] = std::sqrt(acc);
      }
      return;
    case Op::kMatrixNormAxis:
      for (int k = t0; k < t1; ++k) {
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
      for (int k = t0; k < t1; ++k) {
        const double* a = Mat(k, ins.in1);
        double acc = 0.0;
        for (int i = 0; i < nn; ++i) acc += a[i];
        Scalars(k)[ins.out] = acc / nn;
      }
      return;
    case Op::kMatrixStd:
      for (int k = t0; k < t1; ++k) {
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
      for (int k = t0; k < t1; ++k) {
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
      for (int k = t0; k < t1; ++k) {
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
      for (int k = t0; k < t1; ++k) {
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
      for (int k = t0; k < t1; ++k) {
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
      for (int k = t0; k < t1; ++k) {
        const double* m0 = Mat(k, kInputMatrix);
        Scalars(k)[ins.out] = m0[(ins.idx0 % n) * n + (ins.idx1 % n)];
      }
      return;
    case Op::kGetRow:
      for (int k = t0; k < t1; ++k) {
        const double* m0 = Mat(k, kInputMatrix);
        std::copy_n(m0 + (ins.idx0 % n) * n, n, Vec(k, ins.out));
      }
      return;
    case Op::kGetColumn:
      for (int k = t0; k < t1; ++k) {
        const double* m0 = Mat(k, kInputMatrix);
        double* o = Vec(k, ins.out);
        const int col = ins.idx0 % n;
        for (int i = 0; i < n; ++i) o[i] = m0[i * n + col];
      }
      return;

    // ---- time series -------------------------------------------------------
    case Op::kTsRank: {
      const int w = std::max<int>(2, std::min<int>(ins.idx0, kHistoryCap));
      for (int k = t0; k < t1; ++k) {
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

    // ---- relation (handled by ExecRelation, never reaches here) -----------
    case Op::kRank:
    case Op::kRelationRank:
    case Op::kRelationDemean:
    case Op::kNumOps:
      break;
  }
  AE_CHECK_MSG(false, "unhandled op");
}

void Executor::ExecShardedSegment(const std::vector<Instruction>& instrs,
                                  size_t begin, size_t end) {
  // Draw ids are assigned here, serially on the driving thread, one per
  // random-op *execution* — the (seed, draw id) key is therefore identical
  // whether the segment then runs on 1 or N shards.
  segment_draw_ids_.assign(end - begin, 0);
  for (size_t i = begin; i < end; ++i) {
    if (GetOpInfo(instrs[i].op).is_random) {
      segment_draw_ids_[i - begin] = draw_counter_++;
    }
  }
  ParallelForTasks([&](int t0, int t1) {
    for (size_t i = begin; i < end; ++i) {
      ExecInstructionRange(instrs[i], t0, t1, segment_draw_ids_[i - begin]);
    }
  });
}

void Executor::ExecFusedSegment(FusedSegment& segment, int refresh_date) {
  // Draw ids are stamped serially on the driving thread, one per random-op
  // *execution*, exactly like the interpreter path — so (seed, draw id) is
  // identical whether this segment then runs fused, sharded, or serial.
  for (const int idx : segment.random_ops) {
    segment.ops[static_cast<size_t>(idx)].draw_id = draw_counter_++;
  }
  // Blocks are sized per segment from its widest operand; the fused m0
  // fill writes a whole matrix per task, so a segment carrying it counts
  // as n*n.
  const int block =
      config_.block_size > 0
          ? config_.block_size
          : AutoBlockSize(refresh_date >= 0 ? n_ * n_ : segment.widest);
  ParallelForTasks([&](int t0, int t1) {
    MicroCtx ctx;
    ctx.scalars = scalars_.data();
    ctx.vectors = vectors_.data();
    ctx.matrices = matrices_.data();
    ctx.history = history_.data();
    ctx.scratch = Scratch(t0);
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
    // fused kernel (a pure float→double widening copy, bitwise exact on
    // any variant; Dataset::FillInputMatrix stays the interpreter's
    // reference).
    const size_t first_col =
        static_cast<size_t>(refresh_date - n_ + 1) * ctx.day_stride;
    for (int b0 = t0; b0 < t1; b0 += block) {
      const int b1 = std::min(t1, b0 + block);
      if (refresh_date >= 0) {
        for (int k = b0; k < b1; ++k) {
          ktable_->fill_input(feature_rows_[static_cast<size_t>(k)] + first_col,
                              ctx.day_stride, n_, Mat(k, kInputMatrix));
        }
      }
      for (const MicroOp& op : segment.ops) op.fn(ctx, op, b0, b1);
    }
  });
}

void Executor::ExecComponent(const std::vector<Instruction>& instrs) {
  // Split into maximal runs of element-wise instructions (sharded with one
  // barrier per run) separated by RelationOps (cross-task, group-parallel).
  // Element-wise instructions only touch their own task's memory, so a shard
  // can execute a whole run back-to-back without synchronizing.
  const size_t m = instrs.size();
  size_t i = 0;
  while (i < m) {
    if (GetOpInfo(instrs[i].op).is_relation) {
      ExecRelation(instrs[i]);
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < m && !GetOpInfo(instrs[j].op).is_relation) ++j;
    ExecShardedSegment(instrs, i, j);
    i = j;
  }
}

void Executor::ExecCompiled(CompiledComponent& compiled, int refresh_date) {
  // The fused refresh needs a leading element-wise segment to ride on; a
  // component that is empty or opens with a relation op (which reads
  // scalars the refresh does not touch — but later segments read m0) gets
  // the standalone sweep instead. Either way every piece sees a fully
  // refreshed m0, exactly like the interpreter's RefreshInputs-then-run.
  bool fuse_refresh = refresh_date >= 0;
  if (fuse_refresh &&
      (compiled.pieces.empty() || compiled.pieces.front().is_relation)) {
    RefreshInputs(refresh_date);
    fuse_refresh = false;
  }
  for (const CompiledComponent::Piece& piece : compiled.pieces) {
    if (piece.is_relation) {
      if (config_.relation_in_plan) {
        ExecRelationPlan(
            compiled.relation_plans[static_cast<size_t>(piece.index)]);
      } else {
        ExecRelation(compiled.relations[static_cast<size_t>(piece.index)]);
      }
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
  const bool tape = fuse_ && !NamesInputMatrix(program.predict) &&
                    !NamesInputMatrix(program.update);
  ExecutorCounters& counters = ExecutorCounters::Get();
  counters.runs.Add();
  if (!tape) counters.input_matrix_runs.Add();
  if (history) counters.history_runs.Add();

  // Persistent shard workers for this Run (no-op when serial), and — on the
  // fused path — the once-per-Run lowering that the date loop amortizes.
  RunArenaScope arena_scope(*this);
  if (fuse_) {
    CompileComponent(program.setup, n_, kHistoryCap, *ktable_, &rel_groups_,
                     /*tape_extraction=*/false, &compiled_[0]);
    CompileComponent(program.predict, n_, kHistoryCap, *ktable_, &rel_groups_,
                     tape, &compiled_[1]);
    CompileComponent(program.update, n_, kHistoryCap, *ktable_, &rel_groups_,
                     tape, &compiled_[2]);
  }
  // Per-date input + predict. The tape path only moves the extraction
  // window; the input-matrix path folds the m0 refresh into the predict
  // component's first segment (one task-state sweep instead of two); the
  // interpreter keeps the standalone sweep as reference.
  const auto predict_at = [&](int date) {
    if (tape) {
      window_start_ = date - n_ + 1;
      ExecCompiled(compiled_[1]);
    } else if (fuse_) {
      ExecCompiled(compiled_[1], date);
    } else {
      RefreshInputs(date);
      ExecComponent(program.predict);
    }
  };

  if (fuse_) ExecCompiled(compiled_[0]);
  else ExecComponent(program.setup);

  ExecutionResult result;
  const auto& train_dates = dataset_.dates(market::Split::kTrain);
  const int num_train =
      limit_train < 0
          ? static_cast<int>(train_dates.size())
          : std::min<int>(limit_train, static_cast<int>(train_dates.size()));
  for (int epoch = 0; epoch < config_.train_epochs; ++epoch) {
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
      if (fuse_) ExecCompiled(compiled_[2]);
      else ExecComponent(program.update);
      if (history) RecordHistory();
    }
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
