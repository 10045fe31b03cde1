// Runtime kernel-variant selection: CPUID detection and table completeness
// for every compiled variant. Value-level parity between the tables is
// fused_parity_test's job; this suite covers the plumbing.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/kernel_table.h"

namespace alphaevolve::core {
namespace {

TEST(DispatchTest, ScalarAlwaysCompiledAndSupported) {
  EXPECT_TRUE(KernelVariantSupported(KernelVariant::kScalar));
  const KernelTable* scalar = GetKernelTable(KernelVariant::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->variant, KernelVariant::kScalar);
  EXPECT_STREQ(scalar->name, "scalar");
  const auto compiled = CompiledKernelVariants();
  EXPECT_NE(std::find(compiled.begin(), compiled.end(),
                      KernelVariant::kScalar),
            compiled.end());
  const auto runnable = RunnableKernelVariants();
  EXPECT_NE(std::find(runnable.begin(), runnable.end(),
                      KernelVariant::kScalar),
            runnable.end());
}

TEST(DispatchTest, CompiledTablesAreComplete) {
  // A table slot left null would only crash when a fuzzed program first hits
  // that op under that variant; refuse here instead, for every variant the
  // build produced (runnable on this host or not).
  for (const KernelVariant v : CompiledKernelVariants()) {
    SCOPED_TRACE(KernelVariantName(v));
    const KernelTable* table = GetKernelTable(v);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->variant, v);
    EXPECT_STREQ(table->name, KernelVariantName(v));
    for (int i = 0; i < static_cast<int>(MicroKernelId::kNumMicroKernels);
         ++i) {
      EXPECT_NE(table->micro[i], nullptr) << "micro kernel id " << i;
    }
    EXPECT_NE(table->matmul, nullptr);
    EXPECT_NE(table->matvec, nullptr);
    EXPECT_NE(table->transpose, nullptr);
    EXPECT_NE(table->fill_input, nullptr);
    EXPECT_NE(table->nn_matvec, nullptr);
    EXPECT_NE(table->nn_mattvec, nullptr);
    EXPECT_NE(table->nn_addouter, nullptr);
  }
}

TEST(DispatchTest, DetectReturnsRunnableVariant) {
  const KernelVariant detected = DetectKernelVariant();
  const auto runnable = RunnableKernelVariants();
  EXPECT_NE(std::find(runnable.begin(), runnable.end(), detected),
            runnable.end());
  EXPECT_TRUE(KernelVariantSupported(detected));
  EXPECT_NE(GetKernelTable(detected), nullptr);
  EXPECT_EQ(DetectedKernelTable().variant, detected);
}

TEST(DispatchTest, RunnableIsSubsetOfCompiled) {
  const auto compiled = CompiledKernelVariants();
  for (const KernelVariant v : RunnableKernelVariants()) {
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), v), compiled.end())
        << KernelVariantName(v);
    EXPECT_TRUE(KernelVariantSupported(v)) << KernelVariantName(v);
  }
}

}  // namespace
}  // namespace alphaevolve::core
