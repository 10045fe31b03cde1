#ifndef ALPHAEVOLVE_CORE_FUSED_H_
#define ALPHAEVOLVE_CORE_FUSED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/instruction.h"
#include "core/kernel_table.h"
#include "core/opcode.h"
#include "core/program.h"

namespace alphaevolve::core {

// MicroCtx / MicroOp / MicroKernelFn live in core/kernel_table.h so the
// per-ISA variant translation units can implement the kernels without
// pulling in the lowering layer.

/// A maximal run of element-wise instructions, compiled for block-at-a-time
/// execution: the executor walks a cache-resident block of tasks through
/// *all* ops of the segment before advancing to the next block.
struct FusedSegment {
  std::vector<MicroOp> ops;
  /// Indices into `ops` needing a fresh serial draw id per execution.
  std::vector<int> random_ops;
  /// Elements of the widest operand any op names (1, n or n*n): the
  /// executor sizes this segment's task blocks from it.
  int widest = 1;
};

/// One relation group, pre-resolved at lowering time: a borrowed view of
/// the member task ids (owned by the dataset / executor, stable for the
/// executor's lifetime). Groups of one set partition the task universe.
struct RelationGroup {
  const int* members = nullptr;
  int size = 0;
};

/// The three group partitions a relation op can rank/demean over. Built
/// once per Executor (global = all tasks as a single group); lowering picks
/// one per relation instruction.
struct RelationGroupSets {
  std::vector<RelationGroup> global;
  std::vector<RelationGroup> sector;
  std::vector<RelationGroup> industry;
};

/// A relation op lowered into the compiled plan: the executor walks its
/// groups in order, and for each one gathers the members' input scalar,
/// ranks or demeans, and scatters the result.
struct RelationPlan {
  Op op = Op::kRank;
  int32_t in1 = 0;
  int32_t out = 0;
  /// Borrowed from the RelationGroupSets passed to CompileComponent.
  const std::vector<RelationGroup>* groups = nullptr;
};

/// A compiled component: fused segments and the relation plans that
/// separate them, in program order.
struct CompiledComponent {
  struct Piece {
    bool is_relation;
    int index;  ///< into `segments` or `relation_plans`
  };
  std::vector<Piece> pieces;
  std::vector<FusedSegment> segments;
  std::vector<RelationPlan> relation_plans;

  void Clear() {
    pieces.clear();
    segments.clear();
    relation_plans.clear();
  }
};

/// True iff some instruction of `instrs` names the input matrix m0 as a
/// matrix operand, read or write. The extraction ops read m0 through no
/// operand slot, so a component that touches m0 only through them returns
/// false. The executor checks predict and update with this once per Run to
/// pick the extraction lowering below.
bool NamesInputMatrix(const std::vector<Instruction>& instrs);

/// Lowers `instrs` into `out` (cleared first; capacity reused across Runs)
/// for window dimension `n` and a ts-rank history capacity of `hist_cap`.
/// Segmentation follows GetMicroOpInfo: every fusable op joins the current
/// segment, relation ops close it, kNoOp lowers to nothing. Aliasing
/// matmul/matvec/transpose lower to scratch-writing kernel variants; the
/// non-aliasing ones write their destination directly.
///
/// `tape_extraction` picks where GetScalar/GetRow/GetColumn read X: false
/// reads the task's m0 (which the caller must fill for the date), true
/// lowers them to the kGet*Tape kernels, which read the feature tape
/// through MicroCtx::feature_rows, day_stride and date0. Only valid when no
/// instruction that runs while m0 would hold X names m0 (NamesInputMatrix).
/// Each segment records its widest operand (FusedSegment::widest).
///
/// Micro-op kernels are fetched from `table` (one per-ISA variant table per
/// build; see core/dispatch.h) — the lowering itself is variant-agnostic.
/// `rel_groups` supplies the pre-partitioned group sets each relation plan
/// borrows; it must outlive `out`.
void CompileComponent(const std::vector<Instruction>& instrs, int n,
                      int hist_cap, const KernelTable& table,
                      const RelationGroupSets& rel_groups,
                      bool tape_extraction, CompiledComponent* out);

}  // namespace alphaevolve::core

#endif  // ALPHAEVOLVE_CORE_FUSED_H_
