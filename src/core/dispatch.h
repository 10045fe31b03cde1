#ifndef ALPHAEVOLVE_CORE_DISPATCH_H_
#define ALPHAEVOLVE_CORE_DISPATCH_H_

#include <vector>

#include "core/kernel_table.h"

namespace alphaevolve::core {

/// Runtime kernel-variant selection. The variant translation units
/// (core/kernels_<variant>.cc) are compiled with per-file arch flags
/// whenever the target arch matches and the compiler accepts the flags;
/// this layer answers "which of those may this machine run?". Executors and
/// the nn kernels use the fastest one (DetectedKernelTable: CPUID on x86,
/// architectural on AArch64). Every variant is bit-identical, so the pick
/// can never change results — only throughput; the parity suites pass each
/// runnable table to an Executor directly.

/// Human-readable variant name ("scalar", "avx2", "avx512", "neon").
const char* KernelVariantName(KernelVariant v);

/// The table for `v`, or nullptr when that variant was not compiled in.
const KernelTable* GetKernelTable(KernelVariant v);

/// True when this machine can execute `v` (compiled-in or not).
bool KernelVariantSupported(KernelVariant v);

/// Best variant that is both compiled in and supported here (>= kScalar).
KernelVariant DetectKernelVariant();

/// The table of DetectKernelVariant(). Never null.
const KernelTable& DetectedKernelTable();

/// Variants compiled into this binary (always includes kScalar).
std::vector<KernelVariant> CompiledKernelVariants();

/// Variants this process can actually run: compiled in AND supported by
/// the host CPU. What the parity suites iterate.
std::vector<KernelVariant> RunnableKernelVariants();

}  // namespace alphaevolve::core

#endif  // ALPHAEVOLVE_CORE_DISPATCH_H_
