// Micro benchmarks for the shared PLI substrate: build, intersect,
// refinement check — the operations §6.4 identifies as the dominant cost of
// every profiling algorithm in this library.
//
// Besides the google-benchmark timings, main() runs an intersect-kernel
// comparison of the flat CSR kernel against a nested-vector baseline (the
// pre-CSR layout, reimplemented here) over a clusters/rows grid and writes
// the measured speedups to BENCH_micro_pli.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/simd.h"
#include "common/timer.h"
#include "data/relation.h"
#include "pli/position_list_index.h"
#include "workload/generators.h"

namespace muds {
namespace {

Relation MakeColumns(int64_t rows, int64_t cardinality_a,
                     int64_t cardinality_b) {
  return MakeCategorical(rows, {cardinality_a, cardinality_b}, /*seed=*/7,
                         "bench");
}

void BM_PliBuild(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t cardinality = state.range(1);
  Relation r = MakeColumns(rows, cardinality, 2);
  for (auto _ : state) {
    Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows());
    benchmark::DoNotOptimize(pli.NumClusters());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_PliBuild)
    ->Args({10000, 10})
    ->Args({10000, 1000})
    ->Args({100000, 10})
    ->Args({100000, 10000});

void BM_PliIntersect(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t cardinality = state.range(1);
  Relation r = MakeColumns(rows, cardinality, cardinality);
  Pli a = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  Pli b = Pli::FromColumn(r.GetColumn(1), r.NumRows());
  for (auto _ : state) {
    Pli ab = a.Intersect(b);
    benchmark::DoNotOptimize(ab.NumClusters());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_PliIntersect)
    ->Args({10000, 10})
    ->Args({10000, 100})
    ->Args({100000, 10})
    ->Args({100000, 300});

void BM_PliRefines(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation r = MakeColumns(rows, 50, 7);
  Pli a = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Refines(r.GetColumn(1)));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_PliRefines)->Arg(10000)->Arg(100000);

void BM_PliDistinctCount(benchmark::State& state) {
  Relation r = MakeColumns(100000, 500, 2);
  Pli a = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.DistinctCount());
  }
}
BENCHMARK(BM_PliDistinctCount);

// --- Intersect-kernel comparison: flat CSR vs the nested-vector layout ---
//
// The nested baseline reproduces the pre-CSR implementation: one
// heap-allocated std::vector per cluster and a fresh hash map of partial
// clusters per probe pass. The flat kernel writes into a reusable
// thread-local arena and emits one contiguous row array.

struct NestedPli {
  std::vector<std::vector<RowId>> clusters;
  RowId num_rows = 0;

  static NestedPli FromFlat(const Pli& pli, RowId num_rows) {
    NestedPli nested;
    nested.num_rows = num_rows;
    nested.clusters.reserve(static_cast<size_t>(pli.NumClusters()));
    for (int64_t k = 0; k < pli.NumClusters(); ++k) {
      const auto cluster = pli.cluster(k);
      nested.clusters.emplace_back(cluster.begin(), cluster.end());
    }
    return nested;
  }

  NestedPli Intersect(const NestedPli& other) const {
    std::vector<int32_t> probe(static_cast<size_t>(num_rows), -1);
    for (size_t k = 0; k < clusters.size(); ++k) {
      for (RowId row : clusters[k]) {
        probe[static_cast<size_t>(row)] = static_cast<int32_t>(k);
      }
    }
    NestedPli out;
    out.num_rows = num_rows;
    std::unordered_map<int32_t, std::vector<RowId>> partial;
    for (const std::vector<RowId>& cluster : other.clusters) {
      partial.clear();
      for (RowId row : cluster) {
        const int32_t id = probe[static_cast<size_t>(row)];
        if (id >= 0) partial[id].push_back(row);
      }
      for (auto& [id, rows] : partial) {
        (void)id;
        if (rows.size() >= 2) out.clusters.push_back(std::move(rows));
      }
    }
    return out;
  }

  int64_t NumClusters() const {
    return static_cast<int64_t>(clusters.size());
  }
};

// Median-of-repetitions wall time of `body`, in microseconds.
template <typename Body>
int64_t MedianMicros(int repetitions, const Body& body) {
  std::vector<int64_t> micros;
  micros.reserve(static_cast<size_t>(repetitions));
  for (int rep = 0; rep < repetitions; ++rep) {
    Timer timer;
    body();
    micros.push_back(timer.ElapsedMicros());
  }
  std::sort(micros.begin(), micros.end());
  return micros[micros.size() / 2];
}

void RunIntersectKernelComparison(bool full, bench::JsonResultWriter* out) {
  bench::JsonResultWriter& writer = *out;
  std::printf("intersect kernel: flat CSR vs nested-vector baseline\n");
  std::printf("%10s %10s %12s %12s %9s\n", "rows", "clusters", "nested_us",
              "flat_us", "speedup");
  bench::PrintRule(58);

  struct GridPoint {
    int64_t rows;
    int64_t cardinality;  // per-column value count => cluster count scale
  };
  std::vector<GridPoint> grid = {
      {10000, 10},   {10000, 100},   {10000, 1000},
      {100000, 10},  {100000, 100},  {100000, 1000}, {100000, 10000},
  };
  if (full) {
    grid.push_back({1000000, 100});
    grid.push_back({1000000, 10000});
  }

  for (const GridPoint& point : grid) {
    Relation r = MakeColumns(point.rows, point.cardinality,
                             point.cardinality);
    const Pli a = Pli::FromColumn(r.GetColumn(0), r.NumRows());
    const Pli b = Pli::FromColumn(r.GetColumn(1), r.NumRows());
    const NestedPli na = NestedPli::FromFlat(a, r.NumRows());
    const NestedPli nb = NestedPli::FromFlat(b, r.NumRows());

    const int repetitions = point.rows >= 1000000 ? 5 : 11;
    // Warm the arena / allocator before timing.
    { Pli warm = a.Intersect(b); benchmark::DoNotOptimize(warm); }
    { NestedPli warm = na.Intersect(nb); benchmark::DoNotOptimize(warm); }

    int64_t flat_clusters = 0;
    const int64_t flat_us = MedianMicros(repetitions, [&] {
      Pli ab = a.Intersect(b);
      flat_clusters = ab.NumClusters();
      benchmark::DoNotOptimize(ab);
    });
    int64_t nested_clusters = 0;
    const int64_t nested_us = MedianMicros(repetitions, [&] {
      NestedPli ab = na.Intersect(nb);
      nested_clusters = ab.NumClusters();
      benchmark::DoNotOptimize(ab);
    });
    if (flat_clusters != nested_clusters) {
      std::fprintf(stderr, "kernel mismatch: flat=%lld nested=%lld\n",
                   static_cast<long long>(flat_clusters),
                   static_cast<long long>(nested_clusters));
    }

    const double speedup = flat_us > 0
                               ? static_cast<double>(nested_us) /
                                     static_cast<double>(flat_us)
                               : 0.0;
    std::printf("%10lld %10lld %12lld %12lld %8.2fx\n",
                static_cast<long long>(point.rows),
                static_cast<long long>(point.cardinality),
                static_cast<long long>(nested_us),
                static_cast<long long>(flat_us), speedup);

    const std::string name = "intersect/rows=" +
                             std::to_string(point.rows) +
                             "/clusters=" + std::to_string(point.cardinality);
    writer.Add(name, static_cast<double>(flat_us) / 1e3, 1,
               {{"rows", point.rows},
                {"clusters", flat_clusters},
                {"nested_us", nested_us},
                {"flat_us", flat_us},
                {"speedup_x100", static_cast<int64_t>(speedup * 100.0)}});
  }
  std::printf("\n");
}

// Candidate column functionally determined by `src` (code mod `card`), so
// refinement checks run their full scan instead of early-exiting on the
// first violation.
Column MakeDeterminedColumn(const Column& src, int64_t card) {
  Column out;
  out.dictionary.reserve(static_cast<size_t>(card));
  for (int64_t v = 0; v < card; ++v) {
    out.dictionary.push_back("d" + std::to_string(v));
  }
  out.codes.reserve(src.codes.size());
  for (const int32_t code : src.codes) {
    out.codes.push_back(static_cast<int32_t>(code % card));
  }
  return out;
}

// --- SIMD kernels: gathered cluster scan and probe fill vs scalar ---
//
// Same binary, same inputs; simd::ForceScalar routes the kernels through
// the scalar fallback for the baseline measurement. The speedup is a
// within-process ratio, which is what the perf gate pins (wall times are
// machine-dependent; ratios mostly are not).
void RunSimdKernelComparison(bool full, bench::JsonResultWriter* out) {
  bench::JsonResultWriter& writer = *out;
  std::printf("simd kernels (%s): scalar vs %s\n",
              simd::LevelName(simd::kCompiledLevel),
              simd::LevelName(simd::kCompiledLevel));
  std::printf("%28s %12s %12s %9s\n", "kernel", "scalar_us", "simd_us",
              "speedup");
  bench::PrintRule(66);

  const int64_t rows = full ? 1000000 : 100000;
  const int64_t clusters = 1000;
  Relation r = MakeColumns(rows, clusters, 2);
  const Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  // Candidate determined by the source column: the refine scan visits
  // every cluster.
  const Column candidate = MakeDeterminedColumn(r.GetColumn(0), 300);
  const int repetitions = full ? 7 : 11;

  const auto measure = [&](const char* kernel, const auto& body) {
    simd::ForceScalar(true);
    body();  // Warm up.
    const int64_t scalar_us = MedianMicros(repetitions, body);
    simd::ForceScalar(false);
    body();
    const int64_t simd_us = MedianMicros(repetitions, body);
    const double speedup =
        simd_us > 0
            ? static_cast<double>(scalar_us) / static_cast<double>(simd_us)
            : 0.0;
    std::printf("%28s %12lld %12lld %8.2fx\n", kernel,
                static_cast<long long>(scalar_us),
                static_cast<long long>(simd_us), speedup);
    writer.Add(std::string(kernel) + "/rows=" + std::to_string(rows),
               static_cast<double>(simd_us) / 1e3, 1,
               {{"rows", rows},
                {"scalar_us", scalar_us},
                {"simd_us", simd_us},
                {"speedup_x100", static_cast<int64_t>(speedup * 100.0)}});
  };

  measure("simd_refine", [&] {
    benchmark::DoNotOptimize(pli.Refines(candidate));
  });
  std::vector<int32_t> probe;
  measure("simd_probe_fill", [&] {
    pli.FillProbeTable(&probe);
    benchmark::DoNotOptimize(probe.data());
  });
  std::printf("\n");
}

void RunKernelComparisons(bool full) {
  bench::JsonResultWriter writer("micro_pli");
  RunIntersectKernelComparison(full, &writer);
  RunSimdKernelComparison(full, &writer);
  writer.Write();
  std::printf("wrote BENCH_micro_pli.json\n\n");
}

}  // namespace
}  // namespace muds

int main(int argc, char** argv) {
  // Strip --full before handing argv to google-benchmark (it rejects
  // flags it does not know).
  bool full = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--full") {
      full = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  muds::RunKernelComparisons(full);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
