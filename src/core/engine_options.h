#ifndef MUDS_CORE_ENGINE_OPTIONS_H_
#define MUDS_CORE_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "common/spill.h"
#include "core/sampling.h"

namespace muds {

/// The knobs every profiling engine (MUDS, Holistic FUN, the baseline, and
/// the incremental maintainer) shares: one struct, passed by const
/// reference, instead of per-engine copies or positional parameters.
/// ProfileOptions extends it with the facade-level choices (algorithm, CSV
/// dialect, auto policy), and MudsOptions holds only MUDS' ablation knobs.
///
/// None of these fields changes *what* is discovered: the IND/UCC/FD sets
/// are identical for every seed, thread count, budget, spill setting and
/// sampling budget. Only runtime, memory and the work counters
/// vary.
struct EngineOptions {
  /// Seed for the randomized traversals (DUCC and the per-right-hand-side
  /// sub-lattice walks). Every per-RHS traversal derives its own seed from
  /// it, so the result does not depend on scheduling.
  uint64_t seed = 1;

  /// Worker threads for the parallel phases (single-column PLI
  /// construction, the SPIDER/PLI overlap, the per-right-hand-side
  /// traversals). 0 = hardware concurrency. A one-thread pool runs the
  /// same code inline on the caller, in task order.
  int num_threads = 1;

  /// Byte budget for the PLI caches (MUDS' shared cache and the baseline's
  /// private DUCC cache; 0 = unlimited). Evicted entries are transparently
  /// rebuilt, so a tight budget only trades rebuild work for memory.
  size_t pli_budget_bytes = size_t{1} << 30;  // PliCache::kDefaultBudgetBytes

  /// Tiered-storage configuration (--spill-dir / --spill-budget-mb). When
  /// enabled, PLI-cache evictions demote entries to a disk spill file
  /// (reloaded on the next probe instead of rebuilt by intersect chains)
  /// and SPIDER switches to its external sort-merge over disk-resident
  /// runs. The byte budget applies to each spill file (the PLI tier and
  /// the SPIDER runs use separate, independently capped files).
  SpillConfig spill;

  /// Sampling-first pre-validation (--sample-pairs / --sample-seed). With a
  /// positive pair budget, a cluster-stratified sample of row pairs drawn
  /// from the single-column PLIs is materialized into an evidence store
  /// right after SPIDER, and every UCC/FD candidate is probed against it
  /// before any PLI work. Refutation-only: a sampled violation is
  /// definite, absence proves nothing.
  SamplingConfig sampling;
};

}  // namespace muds

#endif  // MUDS_CORE_ENGINE_OPTIONS_H_
