// Lowering for the executor's fused segment path. The micro-op kernel
// *bodies* live in core/kernels_impl.inc, compiled once per ISA variant
// (core/kernels_<variant>.cc) — here each instruction is mapped once to a
// MicroKernelId and resolved through the caller's KernelTable, so the Op
// switch (and the variant choice) happens at compile time, never during
// execution.

#include "core/fused.h"

#include <algorithm>

#include "core/opcode.h"
#include "util/check.h"

namespace alphaevolve::core {
namespace {

/// Element offset of operand `slot` within a task's region of `space`'s
/// array.
int SlotOffset(OperandType space, int slot, int n) {
  switch (space) {
    case OperandType::kScalar:
      return slot;
    case OperandType::kVector:
      return slot * n;
    case OperandType::kMatrix:
      return slot * n * n;
    case OperandType::kNone:
      return 0;
  }
  return 0;
}

/// Selects the kernel slot and applies per-op fixups (pre-clamped indices,
/// m0 operand or tape offsets, aliasing variant). One switch per
/// instruction, at compile time — never again during execution.
MicroOp LowerOne(const Instruction& ins, int n, int hist_cap,
                 const KernelTable& table, bool tape_extraction) {
  const OpInfo& info = GetOpInfo(ins.op);
  MicroOp m;
  m.out = SlotOffset(info.out, ins.out, n);
  m.in1 = SlotOffset(info.in1, ins.in1, n);
  m.in2 = SlotOffset(info.in2, ins.in2, n);
  m.idx0 = ins.idx0;
  m.idx1 = ins.idx1;
  m.imm0 = ins.imm0;
  m.imm1 = ins.imm1;

  MicroKernelId id = MicroKernelId::kNumMicroKernels;
  switch (ins.op) {
    case Op::kScalarConst:      id = MicroKernelId::kSConst; break;
    case Op::kScalarAdd:        id = MicroKernelId::kSAdd; break;
    case Op::kScalarSub:        id = MicroKernelId::kSSub; break;
    case Op::kScalarMul:        id = MicroKernelId::kSMul; break;
    case Op::kScalarDiv:        id = MicroKernelId::kSDiv; break;
    case Op::kScalarMin:        id = MicroKernelId::kSMin; break;
    case Op::kScalarMax:        id = MicroKernelId::kSMax; break;
    case Op::kScalarAbs:        id = MicroKernelId::kSAbs; break;
    case Op::kScalarReciprocal: id = MicroKernelId::kSRecip; break;
    case Op::kScalarSin:        id = MicroKernelId::kSSin; break;
    case Op::kScalarCos:        id = MicroKernelId::kSCos; break;
    case Op::kScalarTan:        id = MicroKernelId::kSTan; break;
    case Op::kScalarArcSin:     id = MicroKernelId::kSArcSin; break;
    case Op::kScalarArcCos:     id = MicroKernelId::kSArcCos; break;
    case Op::kScalarArcTan:     id = MicroKernelId::kSArcTan; break;
    case Op::kScalarExp:        id = MicroKernelId::kSExp; break;
    case Op::kScalarLog:        id = MicroKernelId::kSLog; break;
    case Op::kScalarHeaviside:  id = MicroKernelId::kSStep; break;

    case Op::kVectorConst:      id = MicroKernelId::kVConst; break;
    case Op::kVectorScale:      id = MicroKernelId::kVScale; break;
    case Op::kVectorBroadcast:  id = MicroKernelId::kVBroadcast; break;
    case Op::kVectorReciprocal: id = MicroKernelId::kVRecip; break;
    case Op::kVectorAbs:        id = MicroKernelId::kVAbs; break;
    case Op::kVectorHeaviside:  id = MicroKernelId::kVStep; break;
    case Op::kVectorAdd:        id = MicroKernelId::kVAdd; break;
    case Op::kVectorSub:        id = MicroKernelId::kVSub; break;
    case Op::kVectorMul:        id = MicroKernelId::kVMul; break;
    case Op::kVectorDiv:        id = MicroKernelId::kVDiv; break;
    case Op::kVectorMin:        id = MicroKernelId::kVMin; break;
    case Op::kVectorMax:        id = MicroKernelId::kVMax; break;
    case Op::kVectorDot:        id = MicroKernelId::kVDot; break;
    case Op::kVectorOuter:      id = MicroKernelId::kVOuter; break;
    case Op::kVectorNorm:       id = MicroKernelId::kVNorm; break;
    case Op::kVectorMean:       id = MicroKernelId::kVMean; break;
    case Op::kVectorStd:        id = MicroKernelId::kVStd; break;
    case Op::kVectorUniform:    id = MicroKernelId::kVUniform; break;
    case Op::kVectorGaussian:   id = MicroKernelId::kVGaussian; break;

    case Op::kMatrixConst:      id = MicroKernelId::kMConst; break;
    case Op::kMatrixScale:      id = MicroKernelId::kMScale; break;
    case Op::kMatrixReciprocal: id = MicroKernelId::kMRecip; break;
    case Op::kMatrixAbs:        id = MicroKernelId::kMAbs; break;
    case Op::kMatrixHeaviside:  id = MicroKernelId::kMStep; break;
    case Op::kMatrixAdd:        id = MicroKernelId::kMAdd; break;
    case Op::kMatrixSub:        id = MicroKernelId::kMSub; break;
    case Op::kMatrixMul:        id = MicroKernelId::kMMul; break;
    case Op::kMatrixDiv:        id = MicroKernelId::kMDiv; break;
    case Op::kMatrixMin:        id = MicroKernelId::kMMin; break;
    case Op::kMatrixMax:        id = MicroKernelId::kMMax; break;
    case Op::kMatrixMatMul:
      id = (ins.out == ins.in1 || ins.out == ins.in2)
               ? MicroKernelId::kMMatMulScratch
               : MicroKernelId::kMMatMulDirect;
      break;
    case Op::kMatrixVectorProduct:
      id = ins.out == ins.in2 ? MicroKernelId::kMMatVecScratch
                              : MicroKernelId::kMMatVecDirect;
      break;
    case Op::kMatrixTranspose:
      id = ins.out == ins.in1 ? MicroKernelId::kMTransposeScratch
                              : MicroKernelId::kMTransposeDirect;
      break;
    case Op::kMatrixNorm:       id = MicroKernelId::kMNorm; break;
    case Op::kMatrixMean:       id = MicroKernelId::kMMean; break;
    case Op::kMatrixStd:        id = MicroKernelId::kMStd; break;
    case Op::kMatrixNormAxis:
      id = ins.idx0 == 0 ? MicroKernelId::kMNormAxisCol
                         : MicroKernelId::kMNormAxisRow;
      break;
    case Op::kMatrixMeanAxis:
      id = ins.idx0 == 0 ? MicroKernelId::kMMeanAxisCol
                         : MicroKernelId::kMMeanAxisRow;
      break;
    case Op::kMatrixBroadcast:
      id = ins.idx0 == 0 ? MicroKernelId::kMBroadcastRows
                         : MicroKernelId::kMBroadcastCols;
      break;
    case Op::kMatrixUniform:    id = MicroKernelId::kMUniform; break;
    case Op::kMatrixGaussian:   id = MicroKernelId::kMGaussian; break;

    // m0[f][j] sits at m0 + f * n + j, and on the date-major tape at
    // (date0 + j) * day_stride + f. The m0 lowering pre-resolves the whole
    // offset into idx0; the tape lowering keeps f in idx0 and j in idx1,
    // since the day stride and date0 are only known at execution.
    case Op::kGetScalar:
      if (tape_extraction) {
        id = MicroKernelId::kGetScalarTape;
        m.idx0 = ins.idx0 % n;
        m.idx1 = ins.idx1 % n;
      } else {
        id = MicroKernelId::kGetScalar;
        m.in1 = kInputMatrix * n * n;
        m.idx0 = (ins.idx0 % n) * n + (ins.idx1 % n);
      }
      break;
    case Op::kGetRow:
      if (tape_extraction) {
        id = MicroKernelId::kGetRowTape;
        m.idx0 = ins.idx0 % n;  // f
      } else {
        id = MicroKernelId::kGetRow;
        m.in1 = kInputMatrix * n * n;
        m.idx0 = (ins.idx0 % n) * n;
      }
      break;
    case Op::kGetColumn:
      if (tape_extraction) {
        id = MicroKernelId::kGetColumnTape;
        m.idx0 = ins.idx0 % n;  // j
      } else {
        id = MicroKernelId::kGetColumn;
        m.in1 = kInputMatrix * n * n;
        m.idx0 = ins.idx0 % n;
      }
      break;

    case Op::kTsRank:
      id = MicroKernelId::kTsRank;
      m.idx0 = std::max(2, std::min<int>(ins.idx0, hist_cap));
      break;

    case Op::kNoOp:
    case Op::kRank:
    case Op::kRelationRank:
    case Op::kRelationDemean:
    case Op::kNumOps:
      AE_CHECK_MSG(false, "op does not lower to a micro-op");
  }
  // A new element-wise op whose case is missing above falls through with
  // the sentinel id; refuse loudly here instead of crashing at dispatch.
  AE_CHECK_MSG(id != MicroKernelId::kNumMicroKernels,
               "no fused lowering for op");
  m.fn = table.micro[static_cast<int>(id)];
  AE_CHECK_MSG(m.fn != nullptr, "kernel table is missing a micro kernel");
  return m;
}

/// Elements of the widest operand `ins` names: 1, n or n*n.
int WidestOperand(const Instruction& ins, int n) {
  const OpInfo& info = GetOpInfo(ins.op);
  int widest = 1;
  for (const OperandType space : {info.out, info.in1, info.in2}) {
    if (space == OperandType::kVector) widest = std::max(widest, n);
    if (space == OperandType::kMatrix) widest = n * n;
  }
  return widest;
}

/// Resolves a relation instruction into its pre-partitioned group list.
RelationPlan LowerRelation(const Instruction& ins,
                           const RelationGroupSets& rel_groups) {
  RelationPlan plan;
  plan.op = ins.op;
  plan.in1 = ins.in1;
  plan.out = ins.out;
  if (ins.op == Op::kRank) {
    plan.groups = &rel_groups.global;
  } else {
    plan.groups = ins.idx0 == 0 ? &rel_groups.sector : &rel_groups.industry;
  }
  return plan;
}

}  // namespace

bool NamesInputMatrix(const std::vector<Instruction>& instrs) {
  const auto is_m0 = [](OperandType space, int slot) {
    return space == OperandType::kMatrix && slot == kInputMatrix;
  };
  for (const Instruction& ins : instrs) {
    const OpInfo& info = GetOpInfo(ins.op);
    if (is_m0(info.out, ins.out) || is_m0(info.in1, ins.in1) ||
        is_m0(info.in2, ins.in2)) {
      return true;
    }
  }
  return false;
}

void CompileComponent(const std::vector<Instruction>& instrs, int n,
                      int hist_cap, const KernelTable& table,
                      const RelationGroupSets& rel_groups,
                      bool tape_extraction, CompiledComponent* out) {
  out->Clear();
  FusedSegment* current = nullptr;
  for (const Instruction& ins : instrs) {
    const MicroOpInfo& micro = GetMicroOpInfo(ins.op);
    if (GetOpInfo(ins.op).is_relation) {
      current = nullptr;  // a relation op closes the running segment
      out->pieces.push_back(
          {true, static_cast<int>(out->relation_plans.size())});
      out->relation_plans.push_back(LowerRelation(ins, rel_groups));
      continue;
    }
    if (!micro.fusable) continue;  // kNoOp lowers to nothing
    if (current == nullptr) {
      out->pieces.push_back(
          {false, static_cast<int>(out->segments.size())});
      current = &out->segments.emplace_back();
    }
    if (micro.takes_draw_id) {
      current->random_ops.push_back(static_cast<int>(current->ops.size()));
    }
    current->widest = std::max(current->widest, WidestOperand(ins, n));
    current->ops.push_back(LowerOne(ins, n, hist_cap, table, tape_extraction));
  }
}

}  // namespace alphaevolve::core
