#include "core/executor.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/generators.h"
#include "market/features.h"
#include "obs/telemetry.h"
#include "reference_executor.h"
#include "reference_stats.h"
#include "test_util.h"

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

Instruction Const(int out, double v) {
  Instruction ins;
  ins.op = Op::kScalarConst;
  ins.out = static_cast<uint8_t>(out);
  ins.imm0 = v;
  return ins;
}

Instruction GetScalar(int out, int feature, int day) {
  Instruction ins;
  ins.op = Op::kGetScalar;
  ins.out = static_cast<uint8_t>(out);
  ins.idx0 = static_cast<uint8_t>(feature);
  ins.idx1 = static_cast<uint8_t>(day);
  return ins;
}

class ExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new market::Dataset(testutil::MakeDataset());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static market::Dataset* dataset_;
};

market::Dataset* ExecutorTest::dataset_ = nullptr;

TEST_F(ExecutorTest, ConstantPrediction) {
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  prog.predict.push_back(Const(kPredictionScalar, 0.75));
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor exec(*dataset_, ExecutorConfig{});
  const auto r = exec.Run(prog, 1);
  ASSERT_TRUE(r.valid);
  ASSERT_EQ(r.valid_preds.size(), dataset_->dates(Split::kValid).size());
  for (const auto& row : r.valid_preds) {
    for (double p : row) EXPECT_DOUBLE_EQ(p, 0.75);
  }
}

TEST_F(ExecutorTest, GetScalarReadsInputMatrix) {
  const int w = dataset_->window();
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  prog.predict.push_back(GetScalar(kPredictionScalar, market::kClose, w - 1));
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor exec(*dataset_, ExecutorConfig{});
  const auto r = exec.Run(prog, 1);
  ASSERT_TRUE(r.valid);
  const auto& dates = dataset_->dates(Split::kValid);
  for (size_t d = 0; d < dates.size(); ++d) {
    for (int k = 0; k < dataset_->num_tasks(); ++k) {
      const double expect =
          static_cast<double>(dataset_->FeatureRow(k, dates[d])[market::kClose]);
      EXPECT_NEAR(r.valid_preds[d][static_cast<size_t>(k)], expect, 1e-12);
    }
  }
}

TEST_F(ExecutorTest, GetRowAndColumnReadTheFeatureWindow) {
  // X[f][j] is feature f on day date - w + 1 + j: a row is one feature
  // across the window, a column every feature of one day.
  const int w = dataset_->window();
  AlphaProgram prog;
  Instruction row = I(Op::kGetRow, 2);
  row.idx0 = market::kClose;
  Instruction col = I(Op::kGetColumn, 3);
  col.idx0 = static_cast<uint8_t>(w - 2);
  prog.predict.push_back(row);
  prog.predict.push_back(col);
  prog.predict.push_back(I(Op::kVectorMean, 4, 2));
  prog.predict.push_back(I(Op::kVectorMean, 5, 3));
  prog.predict.push_back(I(Op::kScalarSub, kPredictionScalar, 4, 5));

  for (const KernelVariant v : RunnableKernelVariants()) {
    SCOPED_TRACE(KernelVariantName(v));
    Executor exec(*dataset_, ExecutorConfig{}, *GetKernelTable(v));
    const auto r = exec.Run(prog, 1);
    ASSERT_TRUE(r.valid);
    const auto& dates = dataset_->dates(Split::kValid);
    for (size_t d = 0; d < dates.size(); ++d) {
      for (int k = 0; k < dataset_->num_tasks(); ++k) {
        double row_sum = 0.0, col_sum = 0.0;
        for (int j = 0; j < w; ++j) {
          row_sum += static_cast<double>(
              dataset_->FeatureRow(k, dates[d] - w + 1 + j)[market::kClose]);
          col_sum +=
              static_cast<double>(dataset_->FeatureRow(k, dates[d] - 1)[j]);
        }
        EXPECT_DOUBLE_EQ(r.valid_preds[d][static_cast<size_t>(k)],
                         row_sum / w - col_sum / w);
      }
    }
  }
}

TEST_F(ExecutorTest, InputPathCountersSplitTapeFromMatrixRuns) {
  // executor.runs counts every Run; executor.input_matrix_runs those that
  // fill m0 every date. The expert alpha reads X only through GetScalar, so
  // it extracts from the feature tape; a program using m0 as a matrix
  // operand fills it.
  const AlphaProgram expert = MakeExpertAlpha(dataset_->window());
  AlphaProgram matrix_read;
  matrix_read.predict.push_back(I(Op::kMatrixMean, kPredictionScalar, 0));

  obs::TelemetryConfig on;
  on.enabled = true;
  obs::Configure(on);
  obs::MetricsRegistry::Default().Reset();
  const obs::Counter& runs =
      obs::MetricsRegistry::Default().GetCounter("executor.runs");
  const obs::Counter& fills =
      obs::MetricsRegistry::Default().GetCounter("executor.input_matrix_runs");

  Executor fused(*dataset_, ExecutorConfig{});
  ASSERT_TRUE(fused.Run(expert, 1).valid);
  EXPECT_EQ(runs.Value(), 1);
  EXPECT_EQ(fills.Value(), 0);
  ASSERT_TRUE(fused.Run(matrix_read, 1).valid);
  EXPECT_EQ(runs.Value(), 2);
  EXPECT_EQ(fills.Value(), 1);

  // Off means off: with the registry disabled nothing is counted.
  obs::Configure(obs::TelemetryConfig{});
  ASSERT_TRUE(fused.Run(matrix_read, 1).valid);
  EXPECT_EQ(runs.Value(), 2);
  EXPECT_EQ(fills.Value(), 1);
  obs::MetricsRegistry::Default().Reset();
}

TEST_F(ExecutorTest, HistoryRunsCountOnlyTsRankPrograms) {
  // executor.history_runs counts the Runs that record the ts_rank history
  // ring: a predict or update ts_rank needs it; the expert alpha does not.
  const AlphaProgram expert = MakeExpertAlpha(dataset_->window());
  AlphaProgram ts_rank;
  ts_rank.predict.push_back(GetScalar(3, market::kClose, 12));
  Instruction ts = I(Op::kTsRank, kPredictionScalar, 3);
  ts.idx0 = 5;
  ts_rank.predict.push_back(ts);
  AlphaProgram update_ts_rank;
  update_ts_rank.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 4, 4));
  update_ts_rank.update.push_back(I(Op::kTsRank, 4, kLabelScalar));

  obs::TelemetryConfig on;
  on.enabled = true;
  obs::Configure(on);
  obs::MetricsRegistry::Default().Reset();
  const obs::Counter& runs =
      obs::MetricsRegistry::Default().GetCounter("executor.runs");
  const obs::Counter& rings =
      obs::MetricsRegistry::Default().GetCounter("executor.history_runs");

  {
    Executor exec(*dataset_, ExecutorConfig{});
    ASSERT_TRUE(exec.Run(expert, 1).valid);
    EXPECT_EQ(runs.Value(), 1);
    EXPECT_EQ(rings.Value(), 0);
    ASSERT_TRUE(exec.Run(ts_rank, 1).valid);
    EXPECT_EQ(runs.Value(), 2);
    EXPECT_EQ(rings.Value(), 1);
    ASSERT_TRUE(exec.Run(update_ts_rank, 1).valid);
    EXPECT_EQ(runs.Value(), 3);
    EXPECT_EQ(rings.Value(), 2);
  }

  // Off means off.
  obs::Configure(obs::TelemetryConfig{});
  const int64_t rings_before = rings.Value();
  Executor exec(*dataset_, ExecutorConfig{});
  ASSERT_TRUE(exec.Run(ts_rank, 1).valid);
  EXPECT_EQ(rings.Value(), rings_before);
  obs::MetricsRegistry::Default().Reset();
}

TEST_F(ExecutorTest, HistoryRingNeverLeaksAcrossRuns) {
  // The ring is zeroed and recorded only for programs with a predict or
  // update ts_rank, so an Executor reused across programs must still give
  // every Run exactly what a fresh Executor and the reference (which keeps
  // the ring on every Run) give: ts_rank reads only slots written in its
  // own Run.
  const int w = dataset_->window();
  AlphaProgram plain;  // no ts_rank: the ring is left untouched
  plain.predict.push_back(GetScalar(3, market::kClose, w - 1));
  plain.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 3, 3));
  plain.update.push_back(I(Op::kScalarAdd, 3, 3, kLabelScalar));

  AlphaProgram in_predict;
  in_predict.predict.push_back(GetScalar(3, market::kClose, w - 1));
  Instruction ts = I(Op::kTsRank, 4, 3);
  ts.idx0 = 9;
  in_predict.predict.push_back(ts);
  in_predict.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 4, 3));

  AlphaProgram in_update;  // the ring feeds the next date's prediction
  in_update.predict.push_back(GetScalar(3, market::kMa5, w - 2));
  in_update.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 5, 3));
  Instruction ts_label = I(Op::kTsRank, 5, kLabelScalar);
  ts_label.idx0 = 16;
  in_update.update.push_back(ts_label);

  AlphaProgram in_setup;  // must see an empty ring, even after ring runs
  in_setup.setup.push_back(Const(3, 7.0));
  in_setup.setup.push_back(I(Op::kTsRank, 4, 3));
  in_setup.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 4, 2));

  // An update-only ts_rank must read the same ring a predict ts_rank would
  // record: a dead predict ts_rank changes nothing.
  AlphaProgram also_in_predict = in_update;
  also_in_predict.predict.push_back(I(Op::kTsRank, 8, 3));

  const std::vector<const AlphaProgram*> programs = {
      &plain, &in_predict, &in_update, &in_setup, &plain, &in_predict};
  std::vector<testutil::ReferenceResult> refs;
  testutil::ReferenceExecutor reused_reference(*dataset_);
  for (const AlphaProgram* prog : programs) {
    testutil::ReferenceExecutor reference(*dataset_);
    refs.push_back(reference.Run(*prog, 3));
    const testutil::ReferenceResult reused_ref = reused_reference.Run(*prog, 3);
    EXPECT_EQ(reused_ref.valid_preds, refs.back().valid_preds);
    EXPECT_EQ(reused_ref.test_preds, refs.back().test_preds);
  }

  for (const KernelVariant v : RunnableKernelVariants()) {
    SCOPED_TRACE(KernelVariantName(v));
    const KernelTable& kernels = *GetKernelTable(v);
    Executor reused(*dataset_, ExecutorConfig{}, kernels);
    for (size_t i = 0; i < programs.size(); ++i) {
      const ExecutionResult got = reused.Run(*programs[i], 3);
      Executor fresh(*dataset_, ExecutorConfig{}, kernels);
      const ExecutionResult want = fresh.Run(*programs[i], 3);
      ASSERT_TRUE(got.valid);
      EXPECT_EQ(got.valid_preds, want.valid_preds);
      EXPECT_EQ(got.test_preds, want.test_preds);
      EXPECT_EQ(got.valid_preds, refs[i].valid_preds);
      EXPECT_EQ(got.test_preds, refs[i].test_preds);
    }

    Executor exec(*dataset_, ExecutorConfig{}, kernels);
    const ExecutionResult want = exec.Run(also_in_predict, 3);
    const ExecutionResult got = exec.Run(in_update, 3);
    EXPECT_EQ(got.valid_preds, want.valid_preds);
    EXPECT_EQ(got.test_preds, want.test_preds);
  }
}

TEST_F(ExecutorTest, TsRankInSetupReadsHalf) {
  // Setup runs before any history is recorded, so a setup ts_rank sees an
  // empty window and reads 0.5, in the executor and the reference; predict
  // only forwards it.
  AlphaProgram prog;
  prog.setup.push_back(Const(3, 7.0));
  Instruction ts = I(Op::kTsRank, 4, 3);
  ts.idx0 = 4;
  prog.setup.push_back(ts);
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 4, 2));

  const auto expect_half = [](bool valid, const auto& valid_preds) {
    ASSERT_TRUE(valid);
    ASSERT_FALSE(valid_preds.empty());
    for (const auto& row : valid_preds) {
      for (const double p : row) EXPECT_EQ(p, 0.5);
    }
  };
  Executor exec(*dataset_, ExecutorConfig{});
  const ExecutionResult r = exec.Run(prog, 1);
  expect_half(r.valid, r.valid_preds);
  testutil::ReferenceExecutor reference(*dataset_);
  const testutil::ReferenceResult ref = reference.Run(prog, 1);
  expect_half(ref.valid, ref.valid_preds);
}

TEST_F(ExecutorTest, ScalarArithmeticPipeline) {
  // s1 = (close + close) * 0.5 == close.
  const int w = dataset_->window();
  AlphaProgram prog;
  prog.setup.push_back(Const(2, 0.5));
  prog.predict.push_back(GetScalar(3, market::kClose, w - 1));
  prog.predict.push_back(I(Op::kScalarAdd, 4, 3, 3));
  prog.predict.push_back(I(Op::kScalarMul, kPredictionScalar, 4, 2));
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor exec(*dataset_, ExecutorConfig{});
  const auto r = exec.Run(prog, 1);
  ASSERT_TRUE(r.valid);
  const auto& dates = dataset_->dates(Split::kValid);
  for (size_t d = 0; d < dates.size(); ++d) {
    const double expect = static_cast<double>(
        dataset_->FeatureRow(0, dates[d])[market::kClose]);
    EXPECT_NEAR(r.valid_preds[d][0], expect, 1e-12);
  }
}

TEST_F(ExecutorTest, MemoryPersistsAcrossDatesAsParameters) {
  // Update counts training dates into s2; inference then predicts that
  // constant — the "parameter" mechanism of the paper.
  AlphaProgram prog;
  prog.setup.push_back(Const(4, 1.0));
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 2, 2));
  prog.update.push_back(I(Op::kScalarAdd, 2, 2, 4));  // s2 += 1

  Executor exec(*dataset_, ExecutorConfig{});
  const auto r = exec.Run(prog, 1);
  ASSERT_TRUE(r.valid);
  const double n_train =
      static_cast<double>(dataset_->dates(Split::kTrain).size());
  // Prediction = 2 * s2 (after all training updates).
  for (const auto& row : r.valid_preds) {
    for (double p : row) EXPECT_DOUBLE_EQ(p, 2.0 * n_train);
  }
}

TEST_F(ExecutorTest, UpdateSeesLabelPredictSeesYesterdaysLabel) {
  // Predict: s1 = s5; Update: s5 = s0. During inference there is no update,
  // so every inference prediction equals the *last training* label.
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 5, 6));  // s6=0
  prog.update.push_back(I(Op::kScalarAdd, 5, kLabelScalar, 6));

  Executor exec(*dataset_, ExecutorConfig{});
  const auto r = exec.Run(prog, 1);
  ASSERT_TRUE(r.valid);
  const int last_train_date = dataset_->dates(Split::kTrain).back();
  for (int k = 0; k < dataset_->num_tasks(); ++k) {
    const double expect = dataset_->Label(k, last_train_date);
    for (const auto& row : r.valid_preds) {
      EXPECT_DOUBLE_EQ(row[static_cast<size_t>(k)], expect);
    }
  }
}

TEST_F(ExecutorTest, RankOpProducesNormalizedCrossSectionalRanks) {
  const int w = dataset_->window();
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  prog.predict.push_back(GetScalar(3, market::kClose, w - 1));
  prog.predict.push_back(I(Op::kRank, kPredictionScalar, 3));
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor exec(*dataset_, ExecutorConfig{});
  const auto r = exec.Run(prog, 1);
  ASSERT_TRUE(r.valid);
  const auto& dates = dataset_->dates(Split::kValid);
  const int K = dataset_->num_tasks();
  for (size_t d = 0; d < dates.size(); ++d) {
    // Recompute expected normalized ranks of the normalized closes.
    std::vector<double> closes;
    for (int k = 0; k < K; ++k) {
      closes.push_back(static_cast<double>(
          dataset_->FeatureRow(k, dates[d])[market::kClose]));
    }
    const auto ranks = testutil::RanksWithTies(closes);  // 1-based
    for (int k = 0; k < K; ++k) {
      const double expect = (ranks[static_cast<size_t>(k)] - 1.0) / (K - 1);
      EXPECT_NEAR(r.valid_preds[d][static_cast<size_t>(k)], expect, 1e-9);
    }
  }
}

TEST_F(ExecutorTest, RelationDemeanZeroSumWithinSector) {
  const int w = dataset_->window();
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  prog.predict.push_back(GetScalar(3, market::kClose, w - 1));
  Instruction demean = I(Op::kRelationDemean, kPredictionScalar, 3);
  demean.idx0 = 0;  // sector
  prog.predict.push_back(demean);
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor exec(*dataset_, ExecutorConfig{});
  const auto r = exec.Run(prog, 1);
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

TEST_F(ExecutorTest, RelationRankStaysWithinGroupBounds) {
  const int w = dataset_->window();
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  prog.predict.push_back(GetScalar(3, market::kClose, w - 1));
  Instruction rr = I(Op::kRelationRank, kPredictionScalar, 3);
  rr.idx0 = 1;  // industry
  prog.predict.push_back(rr);
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor exec(*dataset_, ExecutorConfig{});
  const auto r = exec.Run(prog, 1);
  ASSERT_TRUE(r.valid);
  for (const auto& row : r.valid_preds) {
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    // Each industry group must contain a 0 and a 1 (min and max member)
    // when the group has >= 2 members with distinct values.
    for (int g = 0; g < dataset_->num_industry_groups(); ++g) {
      const auto& members = dataset_->industry_tasks(g);
      if (members.size() < 2) continue;
      double lo = 2.0, hi = -1.0;
      for (int k : members) {
        lo = std::min(lo, row[static_cast<size_t>(k)]);
        hi = std::max(hi, row[static_cast<size_t>(k)]);
      }
      EXPECT_DOUBLE_EQ(lo, 0.0);
      EXPECT_DOUBLE_EQ(hi, 1.0);
    }
  }
}

TEST_F(ExecutorTest, TsRankOfMonotoneSeriesApproachesOne) {
  // Close paths drift upward; normalized close at the latest day out-ranks
  // its recent history most of the time. Use a pure-trend panel for
  // determinism.
  auto close = [](int k, int t) { return 10.0 + t + k; };
  auto ds = market::Dataset::Build(
      testutil::MakePanel(6, 90, close, [](int) { return 0; }),
      market::DatasetConfig{});

  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  prog.predict.push_back(GetScalar(3, market::kClose, ds.window() - 1));
  Instruction ts = I(Op::kTsRank, kPredictionScalar, 3);
  ts.idx0 = 5;
  prog.predict.push_back(ts);
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor exec(ds, ExecutorConfig{});
  const auto r = exec.Run(prog, 1);
  ASSERT_TRUE(r.valid);
  for (const auto& row : r.valid_preds) {
    for (double p : row) EXPECT_DOUBLE_EQ(p, 1.0);
  }
}

TEST_F(ExecutorTest, RelationOpsMatchHandComputedValues) {
  // Eight stocks whose normalized close is the same dyadic v on every
  // evaluation date: the close is 128 v, except 128 on the panel's last
  // day, which no date's window reaches but which is each stock's
  // normalization maximum. Stocks 1 and 2 have identical bars (an exact
  // tie), and so do stocks 3 and 4, whose log(v - 0.25) is NaN. Sectors
  // (= industries): {0, 1, 2, 3, 4}, {5, 6} and {7} alone.
  const std::vector<double> v = {0.75,  0.5, 0.5,   0.125,
                                 0.125, 1.0, 0.375, 0.625};
  const std::vector<int> sector = {0, 0, 0, 0, 0, 1, 1, 2};
  const int num_days = 90;
  const auto ds = market::Dataset::Build(
      testutil::MakePanel(
          8, num_days,
          [&](int k, int t) {
            return t == num_days - 1 ? 128.0 : 128.0 * v[k];
          },
          [&](int k) { return sector[k]; }),
      market::DatasetConfig{});
  ASSERT_EQ(ds.num_tasks(), 8);
  ASSERT_EQ(ds.num_sector_groups(), 3);

  // s4 = v - 0.25 = {0.5, 0.25, 0.25, -0.125, -0.125, 0.75, 0.125, 0.375}
  // (exact); s5 = log(s4), NaN for stocks 3 and 4. Ascending finite s5:
  // stock 6, then the tie 1 = 2, then 7, 0 and 5.
  const auto program = [&](const Instruction& relation) {
    AlphaProgram prog;
    prog.setup.push_back(Const(2, 0.25));
    prog.predict.push_back(GetScalar(3, market::kClose, ds.window() - 1));
    prog.predict.push_back(I(Op::kScalarSub, 4, 3, 2));
    prog.predict.push_back(I(Op::kScalarLog, 5, 4));
    prog.predict.push_back(relation);
    return prog;
  };
  // idx0 picks the group set: 0 = sectors, 1 = industries (equal here, so
  // both sets must give the same values).
  const auto grouped = [](Op op, int in, int idx0) {
    Instruction ins = I(op, kPredictionScalar, in);
    ins.idx0 = static_cast<uint8_t>(idx0);
    return ins;
  };
  const double mean0 = 0.75 / 5;  // sector 0's s4 sum is exactly 0.75
  const std::vector<double> want_group_rank = {
      2 / 4.0, 0.5 / 4, 0.5 / 4, 3 / 4.0, 4 / 4.0, 1.0, 0.0, 0.5};
  const std::vector<double> want_group_demean = {
      0.5 - mean0,    0.25 - mean0, 0.25 - mean0, -0.125 - mean0,
      -0.125 - mean0, 0.3125,       -0.3125,      0.0};
  struct Case {
    const char* name;
    Instruction relation;
    std::vector<double> want;  // per task, on every date
  };
  const std::vector<Case> cases = {
      // One group of 8, positions over g - 1 = 7: the tie shares position
      // (1 + 2) / 2; the NaNs come last, each at its own position in member
      // order (NaN != NaN, so they never average).
      {"rank",
       I(Op::kRank, kPredictionScalar, 5),
       {4 / 7.0, 1.5 / 7, 1.5 / 7, 6 / 7.0, 7 / 7.0, 5 / 7.0, 0.0, 3 / 7.0}},
      // Sector 0 over g - 1 = 4: tie at (0 + 1) / 2, stock 0, NaNs 3 then 4;
      // sector 1: stock 6 then 5; the singleton sector reads 0.5.
      {"sector rank", grouped(Op::kRelationRank, 5, 0), want_group_rank},
      {"industry rank", grouped(Op::kRelationRank, 5, 1), want_group_rank},
      // s4 minus its sector's mean: 0.75 / 5, (0.75 + 0.125) / 2 = 0.4375,
      // and the singleton's own value.
      {"sector demean", grouped(Op::kRelationDemean, 4, 0),
       want_group_demean},
      {"industry demean", grouped(Op::kRelationDemean, 4, 1),
       want_group_demean},
  };

  const auto expect_rows = [](const std::vector<std::vector<double>>& rows,
                              const std::vector<double>& want) {
    ASSERT_FALSE(rows.empty());
    for (const auto& row : rows) EXPECT_EQ(row, want);
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const AlphaProgram prog = program(c.relation);
    for (const KernelVariant v : RunnableKernelVariants()) {
      SCOPED_TRACE(KernelVariantName(v));
      Executor exec(ds, ExecutorConfig{}, *GetKernelTable(v));
      const ExecutionResult r = exec.Run(prog, 1);
      ASSERT_TRUE(r.valid);
      expect_rows(r.valid_preds, c.want);
      expect_rows(r.test_preds, c.want);
    }
    SCOPED_TRACE("reference");
    testutil::ReferenceExecutor reference(ds);
    const testutil::ReferenceResult ref = reference.Run(prog, 1);
    ASSERT_TRUE(ref.valid);
    expect_rows(ref.valid_preds, c.want);
    expect_rows(ref.test_preds, c.want);
  }
}

TEST_F(ExecutorTest, NonFinitePredictionInvalidatesRun) {
  AlphaProgram prog;
  prog.setup.push_back(Const(2, 0.0));
  prog.predict.push_back(I(Op::kScalarReciprocal, kPredictionScalar, 2));
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor exec(*dataset_, ExecutorConfig{});
  const auto r = exec.Run(prog, 1);
  EXPECT_FALSE(r.valid);
}

TEST_F(ExecutorTest, RandomOpsDeterministicPerSeed) {
  AlphaProgram prog;
  Instruction gauss;
  gauss.op = Op::kVectorGaussian;
  gauss.out = 2;
  gauss.imm0 = 0.0;
  gauss.imm1 = 1.0;
  prog.setup.push_back(gauss);
  prog.predict.push_back(I(Op::kVectorMean, kPredictionScalar, 2));
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor exec(*dataset_, ExecutorConfig{});
  const auto r1 = exec.Run(prog, 99);
  const auto r2 = exec.Run(prog, 99);
  const auto r3 = exec.Run(prog, 100);
  ASSERT_TRUE(r1.valid && r2.valid && r3.valid);
  EXPECT_EQ(r1.valid_preds, r2.valid_preds);
  EXPECT_NE(r1.valid_preds, r3.valid_preds);
}

TEST_F(ExecutorTest, DateLimitsTruncateRun) {
  AlphaProgram prog;
  prog.setup.push_back(Const(4, 1.0));
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 2, 2));
  prog.update.push_back(I(Op::kScalarAdd, 2, 2, 4));

  Executor exec(*dataset_, ExecutorConfig{});
  const auto r = exec.Run(prog, 1, /*include_test=*/false,
                          /*limit_train=*/5, /*limit_valid=*/3);
  ASSERT_TRUE(r.valid);
  ASSERT_EQ(r.valid_preds.size(), 3u);
  EXPECT_TRUE(r.test_preds.empty());
  EXPECT_DOUBLE_EQ(r.valid_preds[0][0], 10.0);  // 2 * 5 training updates
}

TEST_F(ExecutorTest, MatrixOpsComposeCorrectly) {
  // s1 = mean(m0 · m0ᵀ)[0,:] via matmul + transpose + mean_axis.
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  prog.predict.push_back(I(Op::kMatrixTranspose, 1, 0));
  prog.predict.push_back(I(Op::kMatrixMatMul, 2, 0, 1));
  Instruction mean_axis = I(Op::kMatrixMeanAxis, 3, 2);
  mean_axis.idx0 = 1;
  prog.predict.push_back(mean_axis);
  prog.predict.push_back(I(Op::kVectorMean, kPredictionScalar, 3));
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor exec(*dataset_, ExecutorConfig{});
  const auto r = exec.Run(prog, 1);
  ASSERT_TRUE(r.valid);

  // Cross-check one entry by hand.
  const int w = dataset_->window();
  const int date = dataset_->dates(Split::kValid)[0];
  std::vector<double> x(static_cast<size_t>(w) * w);
  dataset_->FillInputMatrix(0, date, x.data());
  double total = 0.0;
  for (int i = 0; i < w; ++i) {
    for (int j = 0; j < w; ++j) {
      double acc = 0.0;
      for (int q = 0; q < w; ++q) {
        acc += x[static_cast<size_t>(i) * w + q] *
               x[static_cast<size_t>(j) * w + q];
      }
      total += acc;
    }
  }
  EXPECT_NEAR(r.valid_preds[0][0], total / (w * w), 1e-9);
}

}  // namespace
}  // namespace alphaevolve::core
