#ifndef MUDS_COMMON_SIMD_H_
#define MUDS_COMMON_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

// Portable SIMD wrapper for the hot kernels (probe-table fill, cluster
// scans, the ingest interning-table probe). The instruction set is selected
// at compile time: AVX2 when the build enables it (the top-level CMakeLists
// probes the host and adds -mavx2 when it runs), NEON on AArch64, and a
// scalar fallback everywhere else. MUDS_SIMD_OFF (cmake -DMUDS_SIMD=off)
// forces the scalar fallback at compile time.
//
// Runtime dispatch is deliberately a single global kill switch rather than
// per-call function pointers: ForceScalar(true) routes every kernel through
// the scalar path, which is how the benches measure SIMD-vs-scalar on one
// binary and how muds_diff / the fuzzers exercise both code paths. All
// kernels are pure and produce identical results at every level.
#if defined(MUDS_SIMD_OFF)
// Compile-time scalar build.
#elif defined(__AVX2__)
#define MUDS_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__ARM_NEON)
#define MUDS_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace muds {
namespace simd {

enum class Level { kScalar, kAvx2, kNeon };

#if defined(MUDS_SIMD_AVX2)
inline constexpr Level kCompiledLevel = Level::kAvx2;
#elif defined(MUDS_SIMD_NEON)
inline constexpr Level kCompiledLevel = Level::kNeon;
#else
inline constexpr Level kCompiledLevel = Level::kScalar;
#endif

namespace internal {
inline std::atomic<bool>& ForceScalarFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace internal

/// Routes every kernel through the scalar fallback until turned off again.
/// Intended for A/B measurement and differential testing; results are
/// identical either way.
inline void ForceScalar(bool on) {
  internal::ForceScalarFlag().store(on, std::memory_order_relaxed);
}

inline bool ScalarForced() {
  return internal::ForceScalarFlag().load(std::memory_order_relaxed);
}

/// The level the kernels will actually run at right now.
inline Level ActiveLevel() {
  return ScalarForced() ? Level::kScalar : kCompiledLevel;
}

inline const char* LevelName(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
    case Level::kScalar:
      return "scalar";
  }
  return "scalar";
}

inline const char* ActiveLevelName() { return LevelName(ActiveLevel()); }

/// Fills dst[0..n) with `value` — the probe-table reset.
inline void FillI32(int32_t* dst, size_t n, int32_t value) {
  size_t i = 0;
#if defined(MUDS_SIMD_AVX2)
  if (!ScalarForced()) {
    const __m256i v = _mm256_set1_epi32(value);
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
    }
  }
#elif defined(MUDS_SIMD_NEON)
  if (!ScalarForced()) {
    const int32x4_t v = vdupq_n_s32(value);
    for (; i + 4 <= n; i += 4) vst1q_s32(dst + i, v);
  }
#endif
  for (; i < n; ++i) dst[i] = value;
}

/// True iff codes[rows[i]] == expected for every i in [0, n) — the
/// cluster-constancy scan of Pli::Refines. AVX2 gathers eight codes per
/// compare; the scalar loop early-exits on the first mismatch.
inline bool AllEqualGather(const int32_t* codes, const int32_t* rows,
                           size_t n, int32_t expected) {
  size_t i = 0;
#if defined(MUDS_SIMD_AVX2)
  if (!ScalarForced()) {
    const __m256i want = _mm256_set1_epi32(expected);
    for (; i + 8 <= n; i += 8) {
      const __m256i idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
      const __m256i vals = _mm256_i32gather_epi32(codes, idx, 4);
      const __m256i eq = _mm256_cmpeq_epi32(vals, want);
      if (_mm256_movemask_epi8(eq) != -1) return false;
    }
  }
#endif
  for (; i < n; ++i) {
    if (codes[rows[i]] != expected) return false;
  }
  return true;
}

/// Returns a 16-bit mask of the bytes in tags[0..16) equal to `tag` (bit i
/// set iff tags[i] == tag) — the control-byte group probe of the
/// SwissTable-style interning table in the ingest dictionary encode: one
/// compare inspects a whole probe group, so a lookup usually costs one
/// kernel call plus at most one full key compare.
inline uint32_t MatchTag16(const uint8_t* tags, uint8_t tag) {
#if defined(MUDS_SIMD_AVX2)
  // SSE2 is implied by AVX2; 16 control bytes fit one xmm register.
  if (!ScalarForced()) {
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
    const __m128i match =
        _mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(tag)));
    return static_cast<uint32_t>(_mm_movemask_epi8(match));
  }
#elif defined(MUDS_SIMD_NEON) && defined(__aarch64__)
  if (!ScalarForced()) {
    const uint8x16_t eq = vceqq_u8(vld1q_u8(tags), vdupq_n_u8(tag));
    // Each matching lane contributes its distinct power-of-two bit, so the
    // horizontal add is an OR over disjoint bits.
    const uint8x16_t bits = {1, 2, 4, 8, 16, 32, 64, 128,
                             1, 2, 4, 8, 16, 32, 64, 128};
    const uint8x16_t masked = vandq_u8(eq, bits);
    return static_cast<uint32_t>(vaddv_u8(vget_low_u8(masked))) |
           (static_cast<uint32_t>(vaddv_u8(vget_high_u8(masked))) << 8);
  }
#endif
  uint32_t mask = 0;
  for (int i = 0; i < 16; ++i) {
    mask |= static_cast<uint32_t>(tags[i] == tag) << i;
  }
  return mask;
}

}  // namespace simd
}  // namespace muds

#endif  // MUDS_COMMON_SIMD_H_
