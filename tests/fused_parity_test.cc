// Bit-parity of the executor's fused plan against the serial reference
// executor (reference_executor.h). The plan changes *scheduling only* —
// lowering, block execution, in-plan relation groups — never any per-task
// FP sequence, so every configuration below must reproduce the reference's
// output bit-for-bit: across a program fuzz (whatever the mutator emits),
// across every compiled kernel variant, across every per-segment block-size
// class on a view with partial blocks, with CounterRng random-init ops,
// with relation ops splitting segments, and on both input paths
// (extraction from the feature tape, or the m0 fill). The reference's dense
// kernels are checked against naive loops.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/executor.h"
#include "core/generators.h"
#include "core/mutator.h"
#include "market/features.h"
#include "market/simulator.h"
#include "obs/telemetry.h"
#include "reference_executor.h"
#include "util/rng.h"

namespace alphaevolve::core {
namespace {

using testutil::ReferenceExecutor;

Instruction I(Op op, int out, int in1 = 0, int in2 = 0) {
  Instruction ins;
  ins.op = op;
  ins.out = static_cast<uint8_t>(out);
  ins.in1 = static_cast<uint8_t>(in1);
  ins.in2 = static_cast<uint8_t>(in2);
  return ins;
}

Instruction RandomInit(Op op, int out, double imm0, double imm1) {
  Instruction ins;
  ins.op = op;
  ins.out = static_cast<uint8_t>(out);
  ins.imm0 = imm0;
  ins.imm1 = imm1;
  return ins;
}

/// Exercises every lowering family: random init, matmul/matvec/transpose
/// (aliasing and not), extraction, ts-rank, and all three relation ops
/// splitting the predict component into multiple fused segments.
AlphaProgram MakeStressAlpha(int window) {
  AlphaProgram prog = MakeExpertAlpha(window);
  prog.setup.push_back(RandomInit(Op::kMatrixGaussian, 2, 0.0, 0.1));
  prog.setup.push_back(RandomInit(Op::kVectorUniform, 2, -0.5, 0.5));
  prog.predict.push_back(I(Op::kMatrixMatMul, 2, 2, 1));   // direct
  prog.predict.push_back(I(Op::kMatrixMatMul, 2, 2, 2));   // aliasing
  prog.predict.push_back(I(Op::kMatrixTranspose, 3, 2));   // direct
  prog.predict.push_back(I(Op::kMatrixTranspose, 3, 3));   // aliasing
  prog.predict.push_back(I(Op::kMatrixVectorProduct, 3, 2, 2));
  prog.predict.push_back(I(Op::kVectorMean, 6, 3));
  Instruction rank = I(Op::kRank, 6, 6);
  prog.predict.push_back(rank);
  Instruction rrank = I(Op::kRelationRank, 7, 6);
  rrank.idx0 = 1;  // industry
  prog.predict.push_back(rrank);
  Instruction demean = I(Op::kRelationDemean, 5, 7);
  demean.idx0 = 0;  // sector
  prog.predict.push_back(demean);
  Instruction ts = I(Op::kTsRank, 4, 5);
  ts.idx0 = 6;
  prog.predict.push_back(ts);
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 4, 5));
  return prog;
}

Instruction Extract(Op op, int out, int idx0, int idx1 = 0) {
  Instruction ins = I(op, out);
  ins.idx0 = static_cast<uint8_t>(idx0);
  ins.idx1 = static_cast<uint8_t>(idx1);
  return ins;
}

/// One program shape for the input-path parity checks, with the path the
/// executor must pick for it: the tape (extraction reads the feature tape,
/// m0 is never filled) or the input matrix (m0 filled every date).
struct InputShape {
  std::string name;
  AlphaProgram program;
  bool tape;
};

/// Appends `s_acc = (s_acc + s_in) * 0.5`: a position-weighted running sum,
/// so an extraction reading the wrong element changes the prediction.
void Accumulate(std::vector<Instruction>& comp, int acc, int in) {
  comp.push_back(I(Op::kScalarAdd, acc, acc, in));
  comp.push_back(I(Op::kScalarMul, acc, acc, 9));  // s9 = 0.5, from setup
}

/// Both input paths, every plan shape each can meet: the fill fused into a
/// leading segment or standalone before a leading relation, X read only in
/// update, every extraction index (including idx >= n, which wraps), and the
/// cases that decide the path — m0 written in setup (dead: the tape path
/// must not see it), written in predict then extracted, or read as a
/// matrix only in update.
std::vector<InputShape> InputPathShapes(int w) {
  std::vector<InputShape> shapes;
  const Instruction last_close = Extract(Op::kGetScalar, 4, 0, w - 1);

  // A leading element-wise segment that consumes X at once.
  shapes.push_back({"segment first", MakeStressAlpha(w), true});
  AlphaProgram segment_fill = MakeStressAlpha(w);
  segment_fill.predict.push_back(I(Op::kMatrixMean, 8, kInputMatrix));
  segment_fill.predict.push_back(
      I(Op::kScalarAdd, kPredictionScalar, kPredictionScalar, 8));
  shapes.push_back({"segment first, m0 matrix", segment_fill, false});

  // A predict that opens with a relation op, X read after it.
  AlphaProgram relation_first;
  relation_first.predict.push_back(I(Op::kRank, 3, kPredictionScalar));
  relation_first.predict.push_back(last_close);
  relation_first.predict.push_back(
      I(Op::kScalarAdd, kPredictionScalar, 3, 4));
  shapes.push_back({"relation first", relation_first, true});
  AlphaProgram relation_fill = relation_first;
  relation_fill.predict.push_back(I(Op::kMatrixNorm, 5, kInputMatrix));
  relation_fill.predict.push_back(
      I(Op::kScalarAdd, kPredictionScalar, kPredictionScalar, 5));
  shapes.push_back({"relation first, m0 matrix", relation_fill, false});

  // An empty predict: only update consumes X.
  AlphaProgram update_only;
  update_only.update.push_back(last_close);
  update_only.update.push_back(Extract(Op::kGetColumn, 2, w - 1));
  update_only.update.push_back(I(Op::kVectorMean, 5, 2));
  update_only.update.push_back(I(Op::kScalarAdd, 4, 4, 5));
  update_only.update.push_back(
      I(Op::kScalarAdd, kPredictionScalar, 4, kLabelScalar));
  shapes.push_back({"extraction only in update", update_only, true});
  AlphaProgram update_matrix;
  update_matrix.update.push_back(I(Op::kMatrixMean, 4, kInputMatrix));
  update_matrix.update.push_back(
      I(Op::kScalarAdd, kPredictionScalar, 4, kLabelScalar));
  shapes.push_back({"m0 matrix only in update, empty predict", update_matrix,
                    false});

  // Every GetScalar/GetRow/GetColumn index, up to two past n (uint8 indices
  // wrap modulo n on both paths), folded into a position-weighted sum. The
  // setup's random weight vector makes row/column element order visible.
  AlphaProgram every_index;
  Instruction half = I(Op::kScalarConst, 9);
  half.imm0 = 0.5;
  every_index.setup.push_back(half);
  every_index.setup.push_back(RandomInit(Op::kVectorUniform, 7, -1.0, 1.0));
  every_index.predict.push_back(I(Op::kScalarConst, 6));  // s6 = 0
  for (int i = 0; i < w + 2; ++i) {
    for (int j = 0; j < w + 2; ++j) {
      every_index.predict.push_back(Extract(Op::kGetScalar, 3, i, j));
      Accumulate(every_index.predict, 6, 3);
    }
    every_index.predict.push_back(Extract(Op::kGetRow, 3, i));
    every_index.predict.push_back(I(Op::kVectorDot, 3, 3, 7));
    Accumulate(every_index.predict, 6, 3);
    every_index.predict.push_back(Extract(Op::kGetColumn, 4, i));
    every_index.predict.push_back(I(Op::kVectorDot, 3, 4, 7));
    Accumulate(every_index.predict, 6, 3);
  }
  every_index.predict.push_back(Extract(Op::kGetScalar, 3, 255, 200));
  Accumulate(every_index.predict, 6, 3);
  every_index.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 6, 6));
  shapes.push_back({"every extraction index", every_index, true});

  // Setup writes m0, predict only extracts: a dead write on the reference
  // path (the first refresh overwrites it), so the tape path must not read
  // it either.
  AlphaProgram setup_writes;
  Instruction fill = I(Op::kMatrixConst, kInputMatrix);
  fill.imm0 = 7.0;
  setup_writes.setup.push_back(fill);
  setup_writes.setup.push_back(
      RandomInit(Op::kMatrixGaussian, kInputMatrix, 0.0, 1.0));
  setup_writes.predict.push_back(last_close);
  setup_writes.predict.push_back(Extract(Op::kGetRow, 2, 3));
  setup_writes.predict.push_back(I(Op::kVectorNorm, 5, 2));
  setup_writes.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 4, 5));
  shapes.push_back({"setup writes m0, predict extracts", setup_writes, true});

  // Predict writes m0, then extracts from what it wrote: the input-matrix
  // path, since the extraction must see the write.
  AlphaProgram predict_writes;
  predict_writes.setup.push_back(
      RandomInit(Op::kMatrixGaussian, 1, 0.0, 1.0));
  predict_writes.predict.push_back(last_close);
  predict_writes.predict.push_back(
      I(Op::kMatrixAdd, kInputMatrix, kInputMatrix, 1));
  predict_writes.predict.push_back(Extract(Op::kGetScalar, 5, 2, w - 1));
  predict_writes.predict.push_back(Extract(Op::kGetColumn, 3, 1));
  predict_writes.predict.push_back(I(Op::kVectorMean, 6, 3));
  predict_writes.predict.push_back(I(Op::kScalarAdd, 5, 5, 6));
  predict_writes.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 4, 5));
  shapes.push_back({"predict writes m0 then extracts", predict_writes,
                    false});

  // Predict only extracts; update reads m0 as a matrix (X of the same
  // date) and feeds the next date's prediction through s6.
  AlphaProgram update_reads;
  update_reads.predict.push_back(last_close);
  update_reads.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 4, 6));
  update_reads.update.push_back(I(Op::kMatrixStd, 6, kInputMatrix));
  shapes.push_back({"m0 matrix only in update", update_reads, false});
  return shapes;
}

/// One shape per auto block-size class: blocks are sized from a segment's
/// widest operand (256 tasks when scalar-only, 52 when a vector is widest,
/// 4 when a matrix is, at n = 13), and a segment carrying the fused m0 fill
/// counts as matrix whatever its own ops are.
std::vector<InputShape> SegmentWidthShapes(int w) {
  std::vector<InputShape> shapes;
  Instruction half = I(Op::kScalarConst, 9);
  half.imm0 = 0.5;

  // Scalar operands only, in predict and update (s6 is a parameter).
  AlphaProgram scalar_only;
  scalar_only.setup.push_back(half);
  scalar_only.predict.push_back(
      Extract(Op::kGetScalar, 3, market::kClose, w - 1));
  scalar_only.predict.push_back(
      Extract(Op::kGetScalar, 4, market::kMa20, w - 3));
  scalar_only.predict.push_back(I(Op::kScalarSub, 5, 3, 4));
  scalar_only.predict.push_back(I(Op::kScalarMul, 5, 5, 9));
  scalar_only.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 5, 6));
  scalar_only.update.push_back(I(Op::kScalarAdd, 6, 6, kLabelScalar));
  scalar_only.update.push_back(I(Op::kScalarMul, 6, 6, 9));
  shapes.push_back({"scalar-only segments", scalar_only, true});

  // A vector is the widest operand: a feature row and a day column, mixed
  // with label-weighted rows accumulated by update.
  AlphaProgram vector_widest;
  vector_widest.setup.push_back(RandomInit(Op::kVectorUniform, 7, -1.0, 1.0));
  vector_widest.predict.push_back(Extract(Op::kGetRow, 2, market::kClose));
  vector_widest.predict.push_back(Extract(Op::kGetColumn, 3, w - 1));
  vector_widest.predict.push_back(I(Op::kVectorMul, 4, 2, 7));
  vector_widest.predict.push_back(I(Op::kVectorAdd, 4, 4, 3));
  vector_widest.predict.push_back(I(Op::kVectorMean, kPredictionScalar, 4));
  vector_widest.update.push_back(I(Op::kVectorScale, 5, 2, kLabelScalar));
  vector_widest.update.push_back(I(Op::kVectorAdd, 7, 7, 5));
  shapes.push_back({"vector-widest segments", vector_widest, true});

  // A matrix other than m0 is the widest operand: still the tape path.
  AlphaProgram matrix_widest;
  matrix_widest.setup.push_back(RandomInit(Op::kMatrixGaussian, 1, 0.0, 0.5));
  matrix_widest.predict.push_back(Extract(Op::kGetColumn, 3, w - 1));
  matrix_widest.predict.push_back(I(Op::kMatrixVectorProduct, 4, 1, 3));
  matrix_widest.predict.push_back(I(Op::kVectorNorm, 5, 4));
  matrix_widest.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 5, 6));
  matrix_widest.update.push_back(I(Op::kVectorOuter, 2, 3, 4));
  matrix_widest.update.push_back(I(Op::kMatrixMean, 6, 2));
  shapes.push_back({"matrix-widest segments", matrix_widest, true});

  // The fused fill rides a scalar-only first segment; m0 is named as a
  // matrix only after a relation op, in the next segment.
  AlphaProgram fill_first;
  fill_first.predict.push_back(
      Extract(Op::kGetScalar, 3, market::kClose, w - 1));
  fill_first.predict.push_back(I(Op::kScalarAdd, 4, 3, 6));
  fill_first.predict.push_back(I(Op::kRank, 5, 4));
  fill_first.predict.push_back(I(Op::kMatrixMean, 7, kInputMatrix));
  fill_first.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 5, 7));
  fill_first.update.push_back(I(Op::kScalarAdd, 6, 6, kLabelScalar));
  shapes.push_back({"fill-first segment", fill_first, false});
  return shapes;
}

/// `want` is an ExecutionResult or a testutil::ReferenceResult.
template <typename Want>
void ExpectBitIdentical(const ExecutionResult& got, const Want& want) {
  ASSERT_EQ(got.valid, want.valid);
  // operator== on vector<double> is bitwise equality per element.
  EXPECT_EQ(got.valid_preds, want.valid_preds);
  EXPECT_EQ(got.test_preds, want.test_preds);
}

/// Runs `prog` with the metrics registry on and reports whether the run
/// filled m0 from the tape every date (it bumps executor.input_matrix_runs)
/// rather than extracting from the tape directly.
bool FillsInputMatrix(Executor& executor, const AlphaProgram& prog,
                      uint64_t seed, ExecutionResult* out) {
  obs::TelemetryConfig on;
  on.enabled = true;
  obs::Configure(on);
  obs::Counter& runs =
      obs::MetricsRegistry::Default().GetCounter("executor.runs");
  obs::Counter& fills =
      obs::MetricsRegistry::Default().GetCounter("executor.input_matrix_runs");
  const int64_t runs_before = runs.Value();
  const int64_t fills_before = fills.Value();
  *out = executor.Run(prog, seed);
  obs::Configure(obs::TelemetryConfig{});
  EXPECT_EQ(runs.Value(), runs_before + 1);
  return fills.Value() > fills_before;
}

class FusedParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Several hundred tasks with real (uneven) sector/industry structure,
    // more than one 256-task block.
    market::MarketConfig mc = market::MarketConfig::BenchScale();
    mc.num_stocks = 300;
    mc.num_days = 120;
    mc.seed = 31;
    dataset_ = new market::Dataset(
        market::Dataset::Simulate(mc, market::DatasetConfig{}));
    ASSERT_GT(dataset_->num_tasks(), 257);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  /// An executor pinned to kernel variant `v`.
  static Executor Pinned(const market::Dataset& data, KernelVariant v) {
    return Executor(data, ExecutorConfig{}, *GetKernelTable(v));
  }

  /// Every third task from 1: the rows a thin-universe Subset view keeps.
  static std::vector<int> ThinRows() {
    std::vector<int> keep;
    for (int k = 1; k < dataset_->num_tasks(); k += 3) keep.push_back(k);
    return keep;
  }

  static market::Dataset* dataset_;
};

market::Dataset* FusedParityTest::dataset_ = nullptr;

TEST_F(FusedParityTest, ProgramFuzzMatchesReference) {
  // The acceptance matrix: serial reference vs fused plan over mutated
  // programs.
  Mutator mutator{MutatorConfig{}};
  Rng rng(7);

  ReferenceExecutor reference(*dataset_);
  Executor fused(*dataset_, ExecutorConfig{});
  AlphaProgram prog = MakeStressAlpha(dataset_->window());
  for (int i = 0; i < 12; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    const uint64_t seed = 4000 + static_cast<uint64_t>(i);
    ExpectBitIdentical(fused.Run(prog, seed), reference.Run(prog, seed));
    prog = mutator.Mutate(prog, rng);
  }
}

TEST_F(FusedParityTest, CounterRngDrawsIdenticalAcrossPaths) {
  // A pure random program: the fused plan stamps serial draw ids on its
  // micro-ops, the reference on its instructions — the streams must line
  // up draw for draw.
  AlphaProgram prog;
  prog.setup.push_back(RandomInit(Op::kMatrixGaussian, 1, 0.0, 1.0));
  prog.predict.push_back(RandomInit(Op::kVectorUniform, 2, -1.0, 1.0));
  prog.predict.push_back(RandomInit(Op::kVectorGaussian, 3, 0.0, 2.0));
  prog.predict.push_back(I(Op::kVectorMean, 3, 2));
  prog.predict.push_back(I(Op::kMatrixMean, 4, 1));
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 3, 4));
  prog.update.push_back(RandomInit(Op::kMatrixUniform, 1, -0.1, 0.1));

  ReferenceExecutor reference(*dataset_);
  const testutil::ReferenceResult expect = reference.Run(prog, 99);
  ASSERT_TRUE(expect.valid);
  Executor fused(*dataset_, ExecutorConfig{});
  ExpectBitIdentical(fused.Run(prog, 99), expect);
  const ExecutionResult other_seed = fused.Run(prog, 100);
  ASSERT_TRUE(other_seed.valid);
  EXPECT_NE(other_seed.valid_preds, expect.valid_preds);
}

TEST_F(FusedParityTest, RelationBoundariesBetweenFusedSegments) {
  // Back-to-back relation ops (empty segments between them) and leading /
  // trailing relations: the compiled piece list must preserve program order
  // exactly.
  const int w = dataset_->window();
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  Instruction get;
  get.op = Op::kGetScalar;
  get.out = 3;
  get.idx0 = 0;
  get.idx1 = static_cast<uint8_t>(w - 1);
  prog.predict.push_back(get);
  prog.predict.push_back(I(Op::kRank, 4, 3));
  Instruction rr = I(Op::kRelationRank, 5, 4);
  rr.idx0 = 1;
  prog.predict.push_back(rr);  // relation directly after relation
  Instruction dm = I(Op::kRelationDemean, 6, 5);
  dm.idx0 = 0;
  prog.predict.push_back(dm);
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 6, 4));
  prog.predict.push_back(I(Op::kRank, kPredictionScalar, kPredictionScalar));
  prog.update.push_back(I(Op::kNoOp, 0));

  ReferenceExecutor reference(*dataset_);
  Executor fused(*dataset_, ExecutorConfig{});
  ExpectBitIdentical(fused.Run(prog, 11), reference.Run(prog, 11));
}

TEST_F(FusedParityTest, FusedInputRefreshBitIdentical) {
  // Two input paths, one reference. When no predict or update instruction
  // names m0 as a matrix, extraction reads the feature tape and m0 is never
  // filled; otherwise the fill rides the predict component's first segment
  // (or runs standalone before a leading relation). The reference refreshes
  // m0 through Dataset::FillInputMatrix on every date. Each shape must take
  // the path it is listed with and match the reference bit for bit — also on
  // a thin-universe view, whose tasks sit on a subset of the shared storage
  // rows, so the tape rows must follow the view's row map.
  const market::Dataset thin = dataset_->Subset(ThinRows());
  const std::vector<const market::Dataset*> universes = {dataset_, &thin};
  for (const market::Dataset* data : universes) {
    SCOPED_TRACE(data == dataset_ ? "full universe" : "subset view");
    for (const InputShape& shape : InputPathShapes(data->window())) {
      SCOPED_TRACE(shape.name);
      ReferenceExecutor reference(*data);
      const testutil::ReferenceResult expect = reference.Run(shape.program, 77);
      ASSERT_TRUE(expect.valid);
      Executor fused(*data, ExecutorConfig{});
      ExecutionResult got;
      EXPECT_EQ(FillsInputMatrix(fused, shape.program, 77, &got), !shape.tape);
      ExpectBitIdentical(got, expect);
    }
  }
}

TEST_F(FusedParityTest, KernelVariantParityFuzz) {
  // Every kernel variant that was both compiled in and is runnable on this
  // host must reproduce the reference bit-for-bit on the mutated corpus —
  // the SIMD variants vectorize only across independent output elements, so
  // there is no tolerance, ever.
  Mutator mutator{MutatorConfig{}};
  Rng rng(17);

  ReferenceExecutor reference(*dataset_);
  std::vector<std::pair<std::string, Executor>> forced;
  for (const KernelVariant v : RunnableKernelVariants()) {
    forced.emplace_back(KernelVariantName(v), Pinned(*dataset_, v));
  }
  ASSERT_GE(forced.size(), 1u);  // scalar always compiles

  // MakeStressAlpha keeps all three relation ops in the corpus even when a
  // mutation step rewrites other instructions.
  AlphaProgram prog = MakeStressAlpha(dataset_->window());
  for (int i = 0; i < 5; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    const uint64_t seed = 6000 + static_cast<uint64_t>(i);
    const testutil::ReferenceResult expect = reference.Run(prog, seed);
    for (auto& [name, executor] : forced) {
      SCOPED_TRACE(name);
      ExpectBitIdentical(executor.Run(prog, seed), expect);
    }
    prog = mutator.Mutate(prog, rng);
  }

  // One shape per auto block-size class through every variant, on the full
  // universe and on a view whose task count leaves a partial block in every
  // class (not a multiple of 4, so of neither 52 nor 256).
  std::vector<int> keep;
  for (int k = 0; k < dataset_->num_tasks(); ++k) {
    if (k % 29 != 5) keep.push_back(k);
  }
  while (keep.size() % 4 == 0) keep.pop_back();
  ASSERT_GT(keep.size(), 256u);
  const market::Dataset uneven = dataset_->Subset(keep);
  ReferenceExecutor uneven_reference(uneven);
  std::vector<std::pair<std::string, Executor>> uneven_forced;
  for (const KernelVariant v : RunnableKernelVariants()) {
    uneven_forced.emplace_back(KernelVariantName(v), Pinned(uneven, v));
  }
  for (const InputShape& shape : SegmentWidthShapes(dataset_->window())) {
    SCOPED_TRACE(shape.name);
    ExecutionResult got;
    EXPECT_EQ(FillsInputMatrix(forced.front().second, shape.program, 909,
                               &got),
              !shape.tape);
    const testutil::ReferenceResult expect = reference.Run(shape.program, 909);
    ASSERT_TRUE(expect.valid);
    ExpectBitIdentical(got, expect);
    for (auto& [name, executor] : forced) {
      SCOPED_TRACE(name);
      ExpectBitIdentical(executor.Run(shape.program, 909), expect);
    }
    const testutil::ReferenceResult uneven_expect =
        uneven_reference.Run(shape.program, 909);
    ASSERT_TRUE(uneven_expect.valid);
    for (auto& [name, executor] : uneven_forced) {
      SCOPED_TRACE(name + " uneven subset view");
      ExpectBitIdentical(executor.Run(shape.program, 909), uneven_expect);
    }
  }

  // Both input paths through every variant's extraction kernels (the tape
  // kernels read raw offsets into the shared feature tape), on the full
  // universe and on a thin-universe view.
  const market::Dataset thin = dataset_->Subset(ThinRows());
  ReferenceExecutor thin_reference(thin);
  for (const InputShape& shape : InputPathShapes(dataset_->window())) {
    SCOPED_TRACE(shape.name);
    const testutil::ReferenceResult expect = reference.Run(shape.program, 808);
    ASSERT_TRUE(expect.valid);
    for (auto& [name, executor] : forced) {
      SCOPED_TRACE(name);
      ExpectBitIdentical(executor.Run(shape.program, 808), expect);
    }
    const testutil::ReferenceResult thin_expect =
        thin_reference.Run(shape.program, 808);
    for (const KernelVariant v : RunnableKernelVariants()) {
      SCOPED_TRACE(std::string(KernelVariantName(v)) + " subset view");
      Executor thin_fused = Pinned(thin, v);
      ExpectBitIdentical(thin_fused.Run(shape.program, 808), thin_expect);
    }
  }
}

TEST_F(FusedParityTest, RelationInPlanMatchesReference) {
  // Relation-heavy shape: back-to-back relations, a relation opening the
  // predict component, and a trailing relation writing the prediction. The
  // in-plan lowering (gather -> rank/demean -> scatter per group, between
  // fused segments) must agree with the reference's whole-universe
  // gather -> rank/demean -> scatter bit-for-bit, for every runnable
  // variant.
  AlphaProgram prog;
  prog.predict.push_back(I(Op::kRank, 3, kPredictionScalar));
  Instruction get;
  get.op = Op::kGetScalar;
  get.out = 4;
  get.idx0 = 0;
  get.idx1 = static_cast<uint8_t>(dataset_->window() - 1);
  prog.predict.push_back(get);
  Instruction rr = I(Op::kRelationRank, 5, 4);
  rr.idx0 = 1;
  prog.predict.push_back(rr);
  Instruction dm = I(Op::kRelationDemean, 6, 5);
  dm.idx0 = 0;
  prog.predict.push_back(dm);
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 6, 3));
  prog.predict.push_back(I(Op::kRank, kPredictionScalar, kPredictionScalar));

  ReferenceExecutor reference(*dataset_);
  const testutil::ReferenceResult expect = reference.Run(prog, 23);
  ASSERT_TRUE(expect.valid);
  for (const KernelVariant v : RunnableKernelVariants()) {
    SCOPED_TRACE(KernelVariantName(v));
    Executor fused = Pinned(*dataset_, v);
    ExpectBitIdentical(fused.Run(prog, 23), expect);
  }
}

TEST_F(FusedParityTest, DenseOpsOnLiveOperandsMatchReference) {
  // MakeStressAlpha's matmuls multiply by m1, which nothing writes, so
  // they only ever see zeros. Here every dense op reads live data — random
  // parameters and the input matrix X — in its direct and its aliasing
  // (scratch) lowering. Only m0 and the scratch slots m3/v3 are written, so
  // nothing feeds back across dates and values stay bounded. A dense kernel
  // that reorders any accumulation changes the prediction's bits.
  AlphaProgram prog;
  prog.setup.push_back(RandomInit(Op::kMatrixGaussian, 1, 0.0, 0.5));
  prog.setup.push_back(RandomInit(Op::kMatrixUniform, 2, -1.0, 1.0));
  prog.setup.push_back(RandomInit(Op::kVectorUniform, 2, -1.0, 1.0));
  // Direct: the destination differs from every input.
  // Aliasing: it is one of them.
  prog.predict.push_back(I(Op::kMatrixTranspose, 3, 1));          // direct
  prog.predict.push_back(I(Op::kMatrixMatMul, 3, 3, 2));          // aliasing
  prog.predict.push_back(
      I(Op::kMatrixMatMul, 3, kInputMatrix, 3));                  // aliasing
  prog.predict.push_back(I(Op::kMatrixTranspose, 3, 3));          // aliasing
  prog.predict.push_back(I(Op::kMatrixMatMul, kInputMatrix, 3, 1));  // direct
  prog.predict.push_back(
      I(Op::kMatrixVectorProduct, 3, kInputMatrix, 2));           // direct
  prog.predict.push_back(I(Op::kMatrixVectorProduct, 3, 3, 3));   // aliasing
  prog.predict.push_back(I(Op::kVectorMean, kPredictionScalar, 3));

  ReferenceExecutor reference(*dataset_);
  const testutil::ReferenceResult expect = reference.Run(prog, 71);
  ASSERT_TRUE(expect.valid);
  for (const KernelVariant v : RunnableKernelVariants()) {
    SCOPED_TRACE(KernelVariantName(v));
    Executor fused = Pinned(*dataset_, v);
    ExpectBitIdentical(fused.Run(prog, 71), expect);
  }
}

// ---- the reference's blocked dense kernels vs naive loops -----------------

/// True bitwise comparison (vector operator== fails NaN == NaN even when
/// the bit patterns agree, and the poisoned inputs below produce NaNs).
void ExpectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b, int n) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << "n=" << n;
}

TEST(BlockedKernelsTest, MatMulBitIdenticalToNaive) {
  Rng rng(3);
  for (const int n : {1, 2, 3, 4, 5, 7, 8, 13, 16, 31}) {
    std::vector<double> a(static_cast<size_t>(n) * n);
    std::vector<double> b(static_cast<size_t>(n) * n);
    for (double& x : a) x = rng.Gaussian();
    for (double& x : b) x = rng.Gaussian();
    // Poison a few entries: NaN/inf propagation must match too.
    if (n >= 4) {
      a[1] = std::numeric_limits<double>::quiet_NaN();
      b[2] = std::numeric_limits<double>::infinity();
      a[static_cast<size_t>(n)] = -0.0;
    }
    std::vector<double> naive(static_cast<size_t>(n) * n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int q = 0; q < n; ++q) acc += a[i * n + q] * b[q * n + j];
        naive[static_cast<size_t>(i) * n + j] = acc;
      }
    }
    std::vector<double> blocked(static_cast<size_t>(n) * n);
    testutil::MatMulBlocked(a.data(), b.data(), blocked.data(), n);
    ExpectSameBits(blocked, naive, n);
  }
}

TEST(BlockedKernelsTest, MatVecBitIdenticalToNaive) {
  Rng rng(5);
  for (const int n : {1, 3, 13, 32}) {
    std::vector<double> a(static_cast<size_t>(n) * n);
    std::vector<double> x(static_cast<size_t>(n));
    for (double& v : a) v = rng.Uniform(-2.0, 2.0);
    for (double& v : x) v = rng.Uniform(-2.0, 2.0);
    std::vector<double> naive(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      double acc = 0.0;
      for (int j = 0; j < n; ++j) acc += a[i * n + j] * x[j];
      naive[static_cast<size_t>(i)] = acc;
    }
    std::vector<double> fast(static_cast<size_t>(n));
    testutil::MatVecInOrder(a.data(), x.data(), fast.data(), n);
    ExpectSameBits(fast, naive, n);
  }
}

TEST(BlockedKernelsTest, TransposeExact) {
  Rng rng(9);
  const int n = 13;
  std::vector<double> a(static_cast<size_t>(n) * n);
  for (double& v : a) v = rng.Gaussian();
  std::vector<double> t(static_cast<size_t>(n) * n);
  testutil::TransposeInto(a.data(), t.data(), n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(t[static_cast<size_t>(j) * n + i],
                a[static_cast<size_t>(i) * n + j]);
    }
  }
}

}  // namespace
}  // namespace alphaevolve::core
