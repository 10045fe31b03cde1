// NEON kernel variant. NEON is architecturally mandatory on AArch64, so no
// extra -m flags are needed — only `-ffp-contract=off` (the AArch64
// compilers otherwise fuse multiply-adds into fmla, which would break
// bit-identity with the scalar reference). Compiles empty on other
// architectures (no AE_HAVE_KERNELS_NEON definition).
#if defined(AE_HAVE_KERNELS_NEON) && defined(__aarch64__)
#define AE_KERNEL_NS kernels_neon
#define AE_KERNEL_NAME "neon"
#define AE_KERNEL_ENUM KernelVariant::kNeon
#include "core/kernels_impl.inc"
#endif
