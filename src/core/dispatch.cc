#include "core/dispatch.h"

namespace alphaevolve::core {
namespace {

bool HostSupports(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar:
      return true;
    case KernelVariant::kAvx2:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case KernelVariant::kAvx512:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
      // Match the compile flags of kernels_avx512.cc: F alone is not enough
      // on CPUs (e.g. some Xeon Phi) lacking the DQ/BW/VL extensions.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#else
      return false;
#endif
    case KernelVariant::kNeon:
#if defined(__aarch64__)
      return true;  // NEON is architecturally mandatory on AArch64.
#else
      return false;
#endif
    case KernelVariant::kNumKernelVariants:
      break;
  }
  return false;
}

}  // namespace

const char* KernelVariantName(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return "scalar";
    case KernelVariant::kAvx2: return "avx2";
    case KernelVariant::kAvx512: return "avx512";
    case KernelVariant::kNeon: return "neon";
    case KernelVariant::kNumKernelVariants: break;
  }
  return "unknown";
}

const KernelTable* GetKernelTable(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar:
      return &kernels_scalar::Table();
    case KernelVariant::kAvx2:
#ifdef AE_HAVE_KERNELS_AVX2
      return &kernels_avx2::Table();
#else
      return nullptr;
#endif
    case KernelVariant::kAvx512:
#ifdef AE_HAVE_KERNELS_AVX512
      return &kernels_avx512::Table();
#else
      return nullptr;
#endif
    case KernelVariant::kNeon:
#ifdef AE_HAVE_KERNELS_NEON
      return &kernels_neon::Table();
#else
      return nullptr;
#endif
    case KernelVariant::kNumKernelVariants:
      break;
  }
  return nullptr;
}

bool KernelVariantSupported(KernelVariant v) { return HostSupports(v); }

KernelVariant DetectKernelVariant() {
  // Widest first; every candidate must be compiled in AND run here.
  static constexpr KernelVariant kPreference[] = {
      KernelVariant::kAvx512, KernelVariant::kAvx2, KernelVariant::kNeon};
  for (const KernelVariant v : kPreference) {
    if (GetKernelTable(v) != nullptr && HostSupports(v)) return v;
  }
  return KernelVariant::kScalar;
}

const KernelTable& DetectedKernelTable() {
  return *GetKernelTable(DetectKernelVariant());
}

std::vector<KernelVariant> CompiledKernelVariants() {
  std::vector<KernelVariant> out;
  for (int i = 0; i < kNumKernelVariants; ++i) {
    const auto v = static_cast<KernelVariant>(i);
    if (GetKernelTable(v) != nullptr) out.push_back(v);
  }
  return out;
}

std::vector<KernelVariant> RunnableKernelVariants() {
  std::vector<KernelVariant> out;
  for (int i = 0; i < kNumKernelVariants; ++i) {
    const auto v = static_cast<KernelVariant>(i);
    if (GetKernelTable(v) != nullptr && HostSupports(v)) out.push_back(v);
  }
  return out;
}

}  // namespace alphaevolve::core
