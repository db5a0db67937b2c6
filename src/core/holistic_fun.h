#ifndef MUDS_CORE_HOLISTIC_FUN_H_
#define MUDS_CORE_HOLISTIC_FUN_H_

#include "common/timer.h"
#include "core/engine_options.h"
#include "data/metadata.h"
#include "data/relation.h"

namespace muds {

/// Result of a Holistic FUN run (shape shared with the baseline).
struct HolisticResult {
  std::vector<Ind> inds;
  std::vector<ColumnSet> uccs;
  std::vector<Fd> fds;
  PhaseTimings timings;
  int64_t fd_checks = 0;
  int64_t pli_intersects = 0;
  /// PLI-cache probe/eviction counters (baseline DUCC only; Holistic FUN
  /// materializes its lattice PLIs outside the cache).
  int64_t pli_cache_hits = 0;
  int64_t pli_cache_misses = 0;
  int64_t pli_cache_evictions = 0;
  int64_t pli_cache_spill_writes = 0;
  int64_t pli_cache_spill_reloads = 0;
  /// Threads the run actually used (0 in EngineOptions::num_threads
  /// resolves to the hardware concurrency).
  int num_threads_used = 1;
  /// Sampling-first pre-validation counters (0 with sampling disabled).
  int64_t sampling_pairs = 0;
  int64_t sampling_refuted = 0;
  int64_t sampling_fed_back = 0;
  int64_t sampling_probe_ns = 0;
};

/// Holistic FUN (§3.2): the "FDs and UCCs simultaneously" holistic
/// algorithm. SPIDER runs on the shared load (one scan feeds the IND task
/// and the PLI construction), and FUN — which must traverse every minimal
/// UCC anyway, because minimal UCCs are free sets (Lemma 3) — stores and
/// returns them instead of discarding them. No additional checks are
/// needed, so the FD runtime is unchanged.
class HolisticFun {
 public:
  /// The SPIDER and FUN tasks read disjoint state, so SPIDER runs as a
  /// pool task next to FUN; the discovered dependency sets are identical
  /// for every thread count. Phase timings measure each task's own elapsed
  /// time, so with several threads they can sum to more than the wall
  /// clock. With sampling enabled, FUN refutes Lemma-1 candidates against
  /// a sampled evidence store first. `engine.pli_budget_bytes` and
  /// `engine.seed` are unused: FUN keeps its lattice PLIs outside any cache
  /// and is not randomized.
  static HolisticResult Run(const Relation& relation,
                            const EngineOptions& engine = {});
};

/// The evaluation baseline (§6): the sequential execution of the three
/// single-task state-of-the-art algorithms — SPIDER (INDs), DUCC (UCCs),
/// FUN (FDs) — with no sharing: DUCC and FUN each build their own PLIs.
/// (The unshared *file read* is modeled by the Profiler facade, which
/// parses the input once per algorithm for the baseline.)
/// The three algorithms stay strictly sequential relative to each other —
/// that ordering is what the baseline models — but `engine.num_threads`
/// still parallelizes DUCC's private column-PLI construction, which is
/// task-internal work.
class Baseline {
 public:
  /// `engine.pli_budget_bytes` and `engine.spill` configure DUCC's private
  /// PLI cache. With sampling enabled, DUCC and FUN each get a private
  /// sampled evidence store for candidate refutation — no sharing,
  /// matching the baseline's no-sharing contract.
  static HolisticResult Run(const Relation& relation,
                            const EngineOptions& engine = {});
};

}  // namespace muds

#endif  // MUDS_CORE_HOLISTIC_FUN_H_
