/**
 * @file
 * The AVX2 probe kernel for SoaSetTable and the once-per-process check
 * that selects it.
 *
 * The AVX2 body is compiled with a function-level target attribute so
 * the translation unit builds on any x86-64 baseline; it only runs when
 * __builtin_cpu_supports reports AVX2.
 */

#include "core/soa_table.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define BTBSIM_X86 1
#else
#define BTBSIM_X86 0
#endif

namespace btbsim::detail {

#if BTBSIM_X86

__attribute__((target("avx2"))) std::uint32_t
eqMaskAvx2(const std::uint64_t *tags, unsigned lanes, std::uint64_t key)
{
    const __m256i k = _mm256_set1_epi64x(static_cast<long long>(key));
    std::uint32_t m = 0;
    for (unsigned w = 0; w < lanes; w += 4) {
        const __m256i t = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        const __m256i eq = _mm256_cmpeq_epi64(t, k);
        m |= static_cast<std::uint32_t>(
                 _mm256_movemask_pd(_mm256_castsi256_pd(eq)))
             << w;
    }
    return m;
}

namespace {

bool
hostHasAvx2()
{
    // Static initializers may run before the CPU model is filled in.
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

} // namespace

extern const bool host_has_avx2 = hostHasAvx2();

#else // !BTBSIM_X86 — never selected; keep linkable.

std::uint32_t
eqMaskAvx2(const std::uint64_t *tags, unsigned lanes, std::uint64_t key)
{
    return eqMaskScalar(tags, lanes, key);
}

extern const bool host_has_avx2 = false;

#endif // BTBSIM_X86

} // namespace btbsim::detail
