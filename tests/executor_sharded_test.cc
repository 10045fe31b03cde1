// Parity and determinism guarantees of the task-sharded executor: sharded
// execution must be bit-identical to serial execution at every lane count,
// uneven last shard included (and for random-init ops, via the
// counter-based RNG); relation ops must keep their cross-task group
// semantics between sharded segments; and shard lanes come only from the
// caller's pool.

#include <algorithm>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/executor.h"
#include "core/generators.h"
#include "core/mutator.h"
#include "market/simulator.h"
#include "test_util.h"
#include "util/check.h"
#include "util/threadpool.h"

namespace alphaevolve::core {
namespace {

using market::Split;

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

/// An alpha exercising every execution path: element-wise segments, random
/// init, ts-rank history, and all three relation ops splitting segments.
AlphaProgram MakeStressAlpha(int window) {
  AlphaProgram prog = MakeExpertAlpha(window);
  prog.setup.push_back(RandomInit(Op::kMatrixGaussian, 2, 0.0, 0.1));
  prog.setup.push_back(RandomInit(Op::kVectorUniform, 2, -0.5, 0.5));
  Instruction rank = I(Op::kRank, 6, kPredictionScalar);
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

void ExpectBitIdentical(const ExecutionResult& a, const ExecutionResult& b) {
  ASSERT_EQ(a.valid, b.valid);
  // operator== on vector<double> is bitwise equality per element.
  EXPECT_EQ(a.valid_preds, b.valid_preds);
  EXPECT_EQ(a.test_preds, b.test_preds);
}

ExecutorConfig Lanes(int lanes) {
  ExecutorConfig cfg;
  cfg.intra_candidate_threads = lanes;
  return cfg;
}

class ExecutorShardedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // A simulated universe with real sector/industry structure (several
    // groups of uneven size): 36 tasks after filters, so 5 and 8 lanes
    // leave a short last shard and 7 lanes fill only 6 shards.
    market::MarketConfig mc = market::MarketConfig::BenchScale();
    mc.num_stocks = 40;
    mc.num_days = 160;
    mc.seed = 23;
    dataset_ = new market::Dataset(
        market::Dataset::Simulate(mc, market::DatasetConfig{}));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static market::Dataset* dataset_;
};

market::Dataset* ExecutorShardedTest::dataset_ = nullptr;

TEST_F(ExecutorShardedTest, BitParityAcrossLaneCounts) {
  const AlphaProgram prog = MakeStressAlpha(dataset_->window());
  Executor serial(*dataset_, ExecutorConfig{});
  const ExecutionResult reference = serial.Run(prog, 77);
  ASSERT_TRUE(reference.valid);

  // ceil(tasks / lanes) tasks per shard, one shard per lane: some of these
  // lane counts leave a short last shard.
  bool uneven_tail = false;
  for (const int lanes : {2, 3, 4, 7, 8}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    ThreadPool pool(lanes - 1);
    Executor sharded(*dataset_, Lanes(lanes), &pool);
    EXPECT_GT(sharded.num_shards(), 1);
    EXPECT_LE(sharded.num_shards(), lanes);
    const int shard = (dataset_->num_tasks() + lanes - 1) / lanes;
    uneven_tail = uneven_tail || dataset_->num_tasks() % shard != 0;
    ExpectBitIdentical(sharded.Run(prog, 77), reference);
  }
  EXPECT_TRUE(uneven_tail);
}

TEST_F(ExecutorShardedTest, LanesWithoutAPoolAreRejected) {
  // Shard lanes come only from the caller's pool: neither a bare Executor
  // nor a bare Evaluator spawns threads of its own.
  EXPECT_THROW(Executor(*dataset_, Lanes(4)), CheckError);
  EvaluatorConfig config;
  config.executor = Lanes(4);
  EXPECT_THROW(Evaluator(*dataset_, config), CheckError);
  ThreadPool pool(3);
  EXPECT_NO_THROW(Evaluator(*dataset_, config, &pool));
}

TEST_F(ExecutorShardedTest, MutatedProgramsStayBitIdentical) {
  // Fuzz across evolved program shapes: whatever the mutator produces must
  // execute identically sharded and serial (including invalid runs).
  Mutator mutator{MutatorConfig{}};
  Rng rng(3);
  AlphaProgram prog = MakeStressAlpha(dataset_->window());
  Executor serial(*dataset_, ExecutorConfig{});
  ThreadPool pool(4);
  Executor sharded(*dataset_, Lanes(5), &pool);  // 8-task shards, 4-task tail
  for (int i = 0; i < 15; ++i) {
    prog = mutator.Mutate(prog, rng);
    SCOPED_TRACE("mutation " + std::to_string(i));
    ExpectBitIdentical(sharded.Run(prog, 1000 + i), serial.Run(prog, 1000 + i));
  }
}

TEST_F(ExecutorShardedTest, CounterRngDeterministicAcrossThreadCounts) {
  // Pure random program: same seed must give the same ExecutionResult for 1
  // and 8 threads; different seeds must differ.
  AlphaProgram prog;
  prog.setup.push_back(RandomInit(Op::kMatrixGaussian, 1, 0.0, 1.0));
  prog.predict.push_back(RandomInit(Op::kVectorUniform, 2, -1.0, 1.0));
  prog.predict.push_back(I(Op::kVectorMean, 3, 2));
  prog.predict.push_back(I(Op::kMatrixMean, 4, 1));
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 3, 4));
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor serial(*dataset_, ExecutorConfig{});
  ThreadPool pool(7);
  Executor sharded(*dataset_, Lanes(8), &pool);

  const ExecutionResult r1 = serial.Run(prog, 99);
  const ExecutionResult r8 = sharded.Run(prog, 99);
  ASSERT_TRUE(r1.valid && r8.valid);
  ExpectBitIdentical(r8, r1);

  const ExecutionResult other_seed = sharded.Run(prog, 100);
  ASSERT_TRUE(other_seed.valid);
  EXPECT_NE(other_seed.valid_preds, r1.valid_preds);
}

TEST_F(ExecutorShardedTest, RelationDemeanZeroSumWithinSectorWhenSharded) {
  const int w = dataset_->window();
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  Instruction get;
  get.op = Op::kGetScalar;
  get.out = 3;
  get.idx0 = 0;
  get.idx1 = static_cast<uint8_t>(w - 1);
  prog.predict.push_back(get);
  Instruction demean = I(Op::kRelationDemean, kPredictionScalar, 3);
  demean.idx0 = 0;  // sector
  prog.predict.push_back(demean);
  prog.update.push_back(I(Op::kNoOp, 0));

  ThreadPool pool(3);
  Executor exec(*dataset_, Lanes(4), &pool);
  const ExecutionResult r = exec.Run(prog, 1);
  ASSERT_TRUE(r.valid);
  for (const auto& row : r.valid_preds) {
    for (int g = 0; g < dataset_->num_sector_groups(); ++g) {
      double sum = 0.0;
      for (int k : dataset_->sector_tasks(g)) {
        sum += row[static_cast<size_t>(k)];
      }
      EXPECT_NEAR(sum, 0.0, 1e-9);
    }
  }
}

TEST_F(ExecutorShardedTest, RelationRankGroupBoundsWhenSharded) {
  const int w = dataset_->window();
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  Instruction get;
  get.op = Op::kGetScalar;
  get.out = 3;
  get.idx0 = 0;
  get.idx1 = static_cast<uint8_t>(w - 1);
  prog.predict.push_back(get);
  Instruction rr = I(Op::kRelationRank, kPredictionScalar, 3);
  rr.idx0 = 1;  // industry
  prog.predict.push_back(rr);
  prog.update.push_back(I(Op::kNoOp, 0));

  ThreadPool pool(7);
  Executor exec(*dataset_, Lanes(8), &pool);  // 5-task shards, 1-task tail
  const ExecutionResult r = exec.Run(prog, 1);
  ASSERT_TRUE(r.valid);
  for (const auto& row : r.valid_preds) {
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    for (int g = 0; g < dataset_->num_industry_groups(); ++g) {
      const auto& members = dataset_->industry_tasks(g);
      if (members.size() < 2) continue;
      double lo = 2.0, hi = -1.0;
      for (int k : members) {
        lo = std::min(lo, row[static_cast<size_t>(k)]);
        hi = std::max(hi, row[static_cast<size_t>(k)]);
      }
      // Distinct values in a group imply its min ranks 0 and its max 1.
      if (lo != hi) {
        EXPECT_DOUBLE_EQ(lo, 0.0);
        EXPECT_DOUBLE_EQ(hi, 1.0);
      }
    }
  }
}

TEST_F(ExecutorShardedTest, EnvThreadCountCannotChangeResults) {
  // CI runs ctest under AE_BENCH_THREADS=1 and =4; this test turns that
  // into a thread-invariance regression check on the executor itself.
  int env_threads = 4;
  if (const char* env = std::getenv("AE_BENCH_THREADS")) {
    env_threads = std::max(1, std::atoi(env));
  }
  const AlphaProgram prog = MakeStressAlpha(dataset_->window());
  Executor serial(*dataset_, ExecutorConfig{});
  ThreadPool pool(std::max(1, env_threads - 1));
  Executor sharded(*dataset_, Lanes(env_threads), &pool);
  ExpectBitIdentical(sharded.Run(prog, 42), serial.Run(prog, 42));
}

}  // namespace
}  // namespace alphaevolve::core
