// AVX-512 kernel variant. Compiled with per-file
// `-mavx512f -mavx512dq -mavx512bw -mavx512vl -ffp-contract=off` (see
// CMakeLists: ae_kernel_variant); when the compiler cannot build the
// variant the AE_HAVE_KERNELS_AVX512 definition is absent and this TU
// compiles empty, so the recursive source glob can always include it.
#if defined(AE_HAVE_KERNELS_AVX512) && defined(__AVX512F__)
#define AE_KERNEL_NS kernels_avx512
#define AE_KERNEL_NAME "avx512"
#define AE_KERNEL_ENUM KernelVariant::kAvx512
#include "core/kernels_impl.inc"
#endif
