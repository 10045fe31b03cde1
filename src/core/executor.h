#ifndef ALPHAEVOLVE_CORE_EXECUTOR_H_
#define ALPHAEVOLVE_CORE_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "core/dispatch.h"
#include "core/fused.h"
#include "core/program.h"
#include "market/dataset.h"
#include "util/rng.h"

namespace alphaevolve::core {

/// Trailing-history capacity per scalar address (for ts_rank).
inline constexpr int kHistoryCap = 16;

/// Executor options.
struct ExecutorConfig {
  ProgramLimits limits;
};

/// Output of one full run: predictions per evaluation date per task.
struct ExecutionResult {
  bool valid = true;  ///< false → a prediction went non-finite; discard alpha.
  bool timed_out = false;  ///< true → abandoned by the evaluation watchdog.
  std::vector<std::vector<double>> valid_preds;  ///< [valid-date idx][task]
  std::vector<std::vector<double>> test_preds;   ///< [test-date idx][task]
};

/// Executes an alpha over all tasks of a dataset in *lockstep*: instructions
/// run one at a time across every task so that a RelationOp can read its
/// input operand from all related tasks at the same date (paper Fig. 4).
///
/// Run phases:
///  1. zero memory; Setup once per task;
///  2. for each training date (one epoch, paper §5.2): refresh m0, Predict,
///     s0 ← label, Update, record scalar history;
///  3. for each validation (then test) date: refresh m0, Predict, record s1
///     (and scalar history).
///
/// The scalar history feeds only ts_rank: it is zeroed and recorded only
/// when predict or update contains a ts_rank (executor.history_runs counts
/// those Runs). A Run never reads history slots an earlier Run wrote, so
/// skipping the ring cannot change any result.
///
/// Memory persists across dates — operands written by Update that survive to
/// phase 3 are the paper's "parameters"; intermediate operands give the
/// t-k lags in the evolved-alpha equations (§5.4.2).
///
/// Input paths: "refresh m0" is the semantics; the executor only pays for
/// it when it is observable. If no Predict or Update instruction names m0
/// as a matrix operand (read or write), X is only ever read through the
/// extraction ops, which then lower to tape kernels reading the few floats
/// they need straight from the dataset's shared feature tape (per-task row
/// pointers resolved at construction, the window start set per date) — m0
/// is never filled. Otherwise m0 is filled from the tape every date, fused
/// into the predict component's first segment. Either way the results are
/// bit-identical to refreshing m0 every date. The executor.runs /
/// executor.input_matrix_runs counters record the split.
///
/// Segments: components are split into segments of element-wise
/// instructions (which touch only their own task's memory) separated by
/// RelationOps; a RelationOp ranks or demeans its sector/industry groups in
/// order (gather → per-group rank/demean → scatter). Random-init ops draw
/// from a counter-based stream (`CounterRng`) keyed by (run seed, serial
/// draw id, task, element), so results are deterministic in the seed.
///
/// Kernel path: each component is lowered once per Run into fused micro-op
/// segments (core/fused.h) that run over all tasks block-at-a-time, in blocks
/// sized per segment from its widest operand, fetching every kernel —
/// element-wise, matmul/matvec/transpose, the fused input refresh — from
/// the per-ISA kernel table given at construction (core/dispatch.h).
/// Relation ops execute through their in-plan lowering: gather →
/// rank/demean → scatter per group, group after group. Element-wise
/// ops have no cross-task reductions, so neither fusion nor blocking can
/// reorder any per-task FP sequence: results are bit-identical to the
/// serial, instruction-at-a-time semantics that tests/reference_executor.h
/// keeps as the oracle. A new op needs a fused lowering and a case there.
///
/// Single-threaded: a Run executes on the calling thread and the executor
/// never spawns threads; parallelism lives one level up, across candidates
/// (EvaluatorPool). Not thread-safe across Run calls: one Executor per
/// driving thread (scratch state is reused across Run calls to avoid
/// per-candidate allocation).
class Executor {
 public:
  /// `kernels` defaults to the fastest table this machine runs. Every
  /// table is bit-identical (kernels vectorize only across independent
  /// output elements); the parity suites pass each runnable one.
  Executor(const market::Dataset& dataset, ExecutorConfig config,
           const KernelTable& kernels = DetectedKernelTable());

  /// Runs the program. `seed` drives the random-init ops; the evaluator
  /// seeds it from the program fingerprint so results are reproducible and
  /// cache-consistent. If `include_test` is false, test_preds stays empty
  /// (saves ~10% during evolution; final metrics re-run with true).
  /// `limit_train`/`limit_valid` truncate the date loops (-1 = all dates);
  /// the probe fingerprint uses small limits for a cheap functional hash.
  /// `budget_seconds > 0` arms the evaluation watchdog: the run is abandoned
  /// (valid = false, timed_out = true) at the first date boundary past the
  /// wall-clock budget, so one pathological program cannot stall a batch.
  /// The deadline is checked once per date — cheap against a lockstep pass
  /// over the whole universe. Note an armed watchdog trades determinism for
  /// liveness: whether a borderline candidate finishes depends on machine
  /// speed, so bit-reproducible (and resumable) searches keep it at 0.
  ExecutionResult Run(const AlphaProgram& program, uint64_t seed,
                      bool include_test = true, int limit_train = -1,
                      int limit_valid = -1, double budget_seconds = 0.0);

  int num_tasks() const { return num_tasks_; }
  int n() const { return n_; }

 private:
  double* Scalars(int task) { return scalars_.data() + task * num_scalars_; }
  double* Vec(int task, int i) {
    return vectors_.data() + (static_cast<size_t>(task) * num_vectors_ + i) * n_;
  }
  double* Mat(int task, int i) {
    return matrices_.data() +
           (static_cast<size_t>(task) * num_matrices_ + i) * n_ * n_;
  }
  /// Zeroes task state for a new Run; the history ring only if `history`.
  void ZeroMemory(bool history);
  void RefreshInputs(int date);
  void RecordHistory();
  /// Executes a relation op through its in-plan lowering: group after
  /// group, gather the members' input scalar, rank or demean, and scatter
  /// the result.
  void ExecRelationPlan(const RelationPlan& plan);
  /// Rank/demean over one group's members, reading rel_in_ and writing
  /// rel_out_ at member indices only (RankGroup sorts in rel_order_).
  void RankGroup(const int* members, int count);
  void DemeanGroup(const int* members, int count);
  /// Executes one compiled segment: stamps draw ids, then walks all tasks
  /// block-at-a-time through the whole micro-op list, in blocks sized from
  /// the segment's widest operand (AutoBlockSize).
  /// `refresh_date >= 0` prepends the input-matrix fill for that date to
  /// each block — the per-date m0 refresh rides the segment's cache pass
  /// instead of sweeping task state separately (bit-identical: the fill
  /// writes only the block's own m0 slots, which no other task reads). On
  /// the tape path no fill is requested and the extraction kernels read
  /// the window starting at `window_start_`.
  void ExecFusedSegment(FusedSegment& segment, int refresh_date = -1);
  /// Walks a compiled component in program order. `refresh_date >= 0`
  /// fuses RefreshInputs(date) into the first piece when it is an
  /// element-wise segment (the common predict shape), saving one full
  /// task-state sweep per date; when the component starts with a relation
  /// op (or is empty), the refresh runs standalone first.
  void ExecCompiled(CompiledComponent& compiled, int refresh_date = -1);
  /// True iff every task's s1 is finite.
  bool PredictionsFinite();

  const market::Dataset& dataset_;
  ExecutorConfig config_;
  int num_tasks_;
  int n_;  // feature/window dimension (f == w)
  int num_scalars_, num_vectors_, num_matrices_;

  // Compiled plan. The compiled components are rebuilt at each Run from the
  // program (capacity reused); a block of tasks, sized per segment, stays
  // cache-hot across one whole segment. ktable_ is the per-ISA kernel table
  // given at construction (core/dispatch.h); every variant is bit-identical.
  const KernelTable* ktable_;
  RelationGroupSets rel_groups_;
  CompiledComponent compiled_[kNumComponents];

  // Tape extraction: each task's day-0 feature row in the shared,
  // date-major PanelStorage (resolved once, through the view's row map; a
  // date is reached by stepping dataset_.day_stride() floats per day) and
  // the first date of the current input window, set per date on the tape
  // path.
  std::vector<const float*> feature_rows_;
  int window_start_ = 0;

  // Counter-based random-op state: draw ids are assigned serially, one per
  // random-op execution, so the (seed, draw id, task, element) key never
  // depends on how a segment walks its tasks.
  uint64_t run_seed_ = 0;
  uint64_t draw_counter_ = 0;

  // Structure-of-arrays scratch, task-major.
  std::vector<double> scalars_;
  std::vector<double> vectors_;
  std::vector<double> matrices_;
  std::vector<double> mat_scratch_;  // one n*n temp, reused task by task

  // ts_rank history ring: [task][slot][scalar addr].
  std::vector<double> history_;
  int hist_size_ = 0;
  int hist_head_ = 0;

  // Relation-op scratch: rel_in_/rel_out_ are indexed by task, rel_order_
  // holds one group's rank order at a time.
  std::vector<double> rel_in_;
  std::vector<double> rel_out_;
  std::vector<int> rel_order_;
  std::vector<int> all_tasks_;
};

}  // namespace alphaevolve::core

#endif  // ALPHAEVOLVE_CORE_EXECUTOR_H_
