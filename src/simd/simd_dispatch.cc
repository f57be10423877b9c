// Runtime CPU dispatch for the SIMD kernel layer: a cpuid probe picks the
// best level the machine supports, the INCDB_SIMD environment variable can
// clamp it down (testing / triage), and ForceLevelForTesting swaps the
// table at runtime. The active table is a single atomic pointer, so
// dispatch costs one acquire load per kernel batch.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/simd_isa.h"

namespace incdb {
namespace simd {

namespace {

Level ClampToDetected(Level level) {
  const Level detected = DetectedLevel();
  return static_cast<int>(level) > static_cast<int>(detected) ? detected
                                                              : level;
}

/// INCDB_SIMD parse: empty/unset means "use the detected level"; an
/// unknown value warns once on stderr and is ignored rather than aborting,
/// since the variable may be set globally for an unrelated binary.
Level InitialLevel() {
  const char* env = std::getenv("INCDB_SIMD");
  if (env == nullptr || env[0] == '\0') return DetectedLevel();
  if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
  if (std::strcmp(env, "sse2") == 0) return ClampToDetected(Level::kSse2);
  if (std::strcmp(env, "avx2") == 0) return ClampToDetected(Level::kAvx2);
  std::fprintf(stderr,
               "incdb: ignoring unknown INCDB_SIMD value '%s' "
               "(expected scalar|sse2|avx2)\n",
               env);
  return DetectedLevel();
}

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

std::string_view LevelToString(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
  }
  return "scalar";
}

Level DetectedLevel() {
#if defined(__x86_64__) || defined(__i386__)
  // Both vector tables compute crc32 with PCLMULQDQ (simd_pclmul.cc).
  if (!__builtin_cpu_supports("pclmul")) return Level::kScalar;
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return Level::kSse2;
#endif
  return Level::kScalar;
}

const Kernels& KernelsFor(Level level) {
  switch (ClampToDetected(level)) {
    case Level::kAvx2:
      return internal::Avx2Kernels();
    case Level::kSse2:
      return internal::Sse2Kernels();
    case Level::kScalar:
      break;
  }
  return internal::ScalarKernels();
}

const Kernels& ActiveKernels() {
  const Kernels* active = g_active.load(std::memory_order_acquire);
  if (active == nullptr) {
    // Benign race: concurrent first calls resolve the same level from the
    // same environment, so the last store wins with an identical pointer.
    active = &KernelsFor(InitialLevel());
    g_active.store(active, std::memory_order_release);
  }
  return *active;
}

Level ActiveLevel() { return ActiveKernels().level; }

void ForceLevelForTesting(Level level) {
  g_active.store(&KernelsFor(level), std::memory_order_release);
}

}  // namespace simd
}  // namespace incdb
