#include "core/program.h"

#include <gtest/gtest.h>

#include "core/generators.h"
#include "core/mutator.h"
#include "util/check.h"
#include "util/rng.h"

namespace alphaevolve::core {
namespace {

TEST(ProgramTest, ComponentAccessors) {
  AlphaProgram prog = MakeNoOpAlpha();
  EXPECT_EQ(&prog.component(ComponentId::kSetup), &prog.setup);
  EXPECT_EQ(&prog.component(ComponentId::kPredict), &prog.predict);
  EXPECT_EQ(&prog.component(ComponentId::kUpdate), &prog.update);
  EXPECT_EQ(prog.TotalInstructions(), 3);
}

TEST(ProgramTest, ValidateAcceptsBuiltinAlphas) {
  const ProgramLimits limits;
  Rng rng(1);
  Mutator mutator{MutatorConfig{}};
  for (InitKind kind : {InitKind::kExpert, InitKind::kNoOp, InitKind::kRandom,
                        InitKind::kNeuralNet}) {
    const AlphaProgram prog = MakeInitialAlpha(kind, mutator, rng);
    EXPECT_EQ(prog.Validate(limits), "") << InitKindName(kind);
  }
}

TEST(ProgramTest, ValidateRejectsTooManyInstructions) {
  ProgramLimits limits;
  limits.max_instructions[1] = 2;
  AlphaProgram prog = MakeNoOpAlpha();
  prog.predict.resize(3, prog.predict[0]);
  EXPECT_NE(prog.Validate(limits), "");
}

TEST(ProgramTest, ValidateRejectsEmptyComponent) {
  AlphaProgram prog = MakeNoOpAlpha();
  prog.update.clear();
  EXPECT_NE(prog.Validate(ProgramLimits{}), "");
}

TEST(ProgramTest, ValidateRejectsOutOfRangeAddress) {
  AlphaProgram prog = MakeNoOpAlpha();
  Instruction bad;
  bad.op = Op::kScalarAdd;
  bad.out = 1;
  bad.in1 = 15;  // only 10 scalars
  bad.in2 = 0;
  prog.predict.push_back(bad);
  EXPECT_NE(prog.Validate(ProgramLimits{}), "");
}

TEST(ProgramTest, ValidateRejectsRelationOpWhenDisabled) {
  AlphaProgram prog = MakeNoOpAlpha();
  Instruction rank;
  rank.op = Op::kRank;
  rank.out = 1;
  rank.in1 = 2;
  prog.predict.push_back(rank);
  EXPECT_EQ(prog.Validate(ProgramLimits{}, /*allow_relation_ops=*/true), "");
  EXPECT_NE(prog.Validate(ProgramLimits{}, /*allow_relation_ops=*/false), "");
}

TEST(ProgramTest, ValidateRejectsExtractionInSetup) {
  AlphaProgram prog = MakeNoOpAlpha();
  Instruction get;
  get.op = Op::kGetScalar;
  get.out = 2;
  prog.setup.push_back(get);
  EXPECT_NE(prog.Validate(ProgramLimits{}), "");
}

TEST(ProgramTest, ValidateRejectsOutOfRangeImmediates) {
  // Each ImmKind's range, at both edges: extraction indexes below 13, axis
  // and group in {0, 1}, a ts_rank window in [2, 13].
  auto with = [](Op op, int idx0, int idx1) {
    Instruction ins;
    ins.op = op;
    ins.out = 2;
    ins.in1 = 3;
    ins.idx0 = static_cast<uint8_t>(idx0);
    ins.idx1 = static_cast<uint8_t>(idx1);
    return ins;
  };
  const struct {
    Instruction ins;
    bool ok;
  } cases[] = {
      {with(Op::kGetScalar, 12, 12), true},
      {with(Op::kGetScalar, 13, 0), false},
      {with(Op::kGetScalar, 0, 13), false},
      {with(Op::kGetRow, 12, 99), true},  // idx1 unused
      {with(Op::kGetColumn, 13, 0), false},
      {with(Op::kMatrixNormAxis, 1, 0), true},
      {with(Op::kMatrixMeanAxis, 2, 0), false},
      {with(Op::kRelationRank, 1, 0), true},
      {with(Op::kRelationDemean, 2, 0), false},
      {with(Op::kTsRank, 2, 0), true},
      {with(Op::kTsRank, 13, 0), true},
      {with(Op::kTsRank, 1, 0), false},
      {with(Op::kTsRank, 14, 0), false},
      {with(Op::kScalarConst, 200, 200), true},  // no index immediates
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.ins.ToString());
    EXPECT_EQ(ValidateInstruction(c.ins, ProgramLimits{}).empty(), c.ok);
    AlphaProgram prog = MakeNoOpAlpha();
    prog.predict.push_back(c.ins);
    EXPECT_EQ(prog.Validate(ProgramLimits{}).empty(), c.ok);
  }
}

TEST(ProgramTest, ToStringHasFigure2Shape) {
  const AlphaProgram prog = MakeExpertAlpha(13);
  const std::string text = prog.ToString();
  EXPECT_NE(text.find("def Setup():"), std::string::npos);
  EXPECT_NE(text.find("def Predict():"), std::string::npos);
  EXPECT_NE(text.find("def Update():"), std::string::npos);
  EXPECT_NE(text.find("s1 = s_div(s5, s9)"), std::string::npos);
}

TEST(ProgramTest, RoundTripExpertAlpha) {
  const AlphaProgram prog = MakeExpertAlpha(13);
  EXPECT_EQ(AlphaProgram::FromString(prog.ToString()), prog);
}

TEST(ProgramTest, RoundTripNeuralNetAlpha) {
  const AlphaProgram prog = MakeNeuralNetAlpha(13);
  EXPECT_EQ(AlphaProgram::FromString(prog.ToString()), prog);
}

TEST(ProgramTest, RoundTripRandomPrograms) {
  Rng rng(7);
  const Mutator mutator{MutatorConfig{}};
  for (int i = 0; i < 25; ++i) {
    const AlphaProgram prog = mutator.RandomProgram(rng);
    EXPECT_EQ(AlphaProgram::FromString(prog.ToString()), prog)
        << prog.ToString();
  }
}

TEST(ProgramTest, FromStringRejectsInstructionBeforeHeader) {
  EXPECT_THROW(AlphaProgram::FromString("s1 = s_add(s2, s3)"), CheckError);
}

TEST(ProgramLimitsTest, NumAddressesPerType) {
  const ProgramLimits limits;
  EXPECT_EQ(limits.NumAddresses(OperandType::kScalar), 10);
  EXPECT_EQ(limits.NumAddresses(OperandType::kVector), 16);
  EXPECT_EQ(limits.NumAddresses(OperandType::kMatrix), 4);
  EXPECT_EQ(limits.NumAddresses(OperandType::kNone), 0);
}

}  // namespace
}  // namespace alphaevolve::core
