// End-to-end benchmark of the profiler: every engine (MUDS, Holistic FUN,
// the sequential baseline, kAuto, TANE) on one named workload, plus
// open-loop traffic against the muds_serve daemon built from the same
// workload's data. Every result is checked; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --daemon PATH --expected FILE [--out-dir DIR] [--record]
//
// --trace 0 reports the end-to-end metrics; --trace 1 additionally probes
// each layer from outside (its public functions, the engines' counters and
// phase timings, a Chrome trace of one pass) and reports the per-layer
// metrics instead. --record prints the canonical digests of the batch
// relations' dependency sets (the content of --expected) and exits.
// See perfbench/README.md for the workloads and metric definitions.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/profiler.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "fd/tane.h"
#include "ind/spider.h"
#include "pli/position_list_index.h"
#include "serve_load.h"
#include "setops/set_trie.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

using muds::Algorithm;
using muds::ColumnSet;
using muds::ProfilingResult;
using muds::Relation;
using Clock = std::chrono::steady_clock;

// Open-loop serving time budget, as shares of --seconds: the batch window,
// the discarded warm-up, the nominal phase (the latency sample), and the
// ladder of rungs above it. The batch window gets most of the run: engine
// times need to average over a shared host's speed phases, while the
// serving metrics settle within seconds.
constexpr double kBatchShare = 0.8;
constexpr double kWarmupShare = 0.04;
constexpr double kNominalShare = 0.08;
constexpr double kLadderShare = 0.08;
// Ladder rungs as multiples of the nominal rate (the nominal phase is rung
// 1.0). A rung passes while its p99 latency meets the limit, the
// generator's median lateness stays below its own limit (it did not fall
// behind; single late submits are already charged to the latency), and
// the backlog after the last submit stays below a few jobs per engine
// thread (it did not grow).
constexpr double kLadder[] = {1.25, 1.5, 1.75, 2.0};
constexpr double kP99LimitMs = 250;
constexpr double kMaxGeneratorLateMs = 10;
constexpr int kMaxBacklogPerThread = 4;
// Job mix: the rest (60%) are fresh payloads.
constexpr double kRepeatShare = 0.25;
constexpr double kAppendShare = 0.15;
// Repeats and appends draw from this many most recent payloads.
constexpr size_t kRecentJobs = 16;
constexpr size_t kRecentFresh = 8;
constexpr int kDeltasPerBase = 2;
constexpr int kSetupRepetitions = 5;
// Untraced/traced pass pairs behind trace.overhead_pct.
constexpr int kOverheadPairs = 2;
// Result collectors: enough persistent connections that a finished job is
// collected at once instead of queueing behind an older, longer one (a
// bounded set, so the daemon's per-connection fd leak is not exercised).
constexpr int kCollectors = 8;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

int64_t Find(const std::vector<std::pair<std::string, int64_t>>& entries,
             const std::string& name) {
  for (const auto& [key, value] : entries) {
    if (key == name) return value;
  }
  return 0;
}

// ------------------------------------------------------------- Digests --

// Canonical digest of dependency sets over column indices: sorted INDs,
// sorted minimal UCCs, sorted minimal FDs, hashed with two seeds.
std::string Digest(std::vector<std::pair<int, int>> inds,
                   std::vector<std::vector<int>> uccs,
                   std::vector<std::pair<int, std::vector<int>>> fds) {
  std::sort(inds.begin(), inds.end());
  std::sort(uccs.begin(), uccs.end());
  std::sort(fds.begin(), fds.end());
  std::string text = "I";
  for (const auto& [dependent, referenced] : inds) {
    text += ' ' + std::to_string(dependent) + '<' + std::to_string(referenced);
  }
  text += "\nU";
  for (const auto& ucc : uccs) {
    text += ' ';
    for (int c : ucc) text += std::to_string(c) + ',';
  }
  text += "\nF";
  for (const auto& [rhs, lhs] : fds) {
    text += ' ';
    for (int c : lhs) text += std::to_string(c) + ',';
    text += "->" + std::to_string(rhs);
  }
  char hex[40];
  std::snprintf(hex, sizeof(hex), "%016llx%016llx",
                static_cast<unsigned long long>(muds::HashBytes(text, 1)),
                static_cast<unsigned long long>(muds::HashBytes(text, 2)));
  return hex;
}

std::vector<int> Columns(const ColumnSet& set) {
  std::vector<int> columns;
  for (int c = set.First(); c >= 0; c = set.NextAtLeast(c + 1)) {
    columns.push_back(c);
  }
  return columns;
}

std::string Digest(const std::vector<muds::Ind>& inds,
                   const std::vector<ColumnSet>& uccs,
                   const std::vector<muds::Fd>& fds) {
  std::vector<std::pair<int, int>> i;
  for (const muds::Ind& ind : inds) i.emplace_back(ind.dependent, ind.referenced);
  std::vector<std::vector<int>> u;
  for (const ColumnSet& ucc : uccs) u.push_back(Columns(ucc));
  std::vector<std::pair<int, std::vector<int>>> f;
  for (const muds::Fd& fd : fds) f.emplace_back(fd.rhs, Columns(fd.lhs));
  return Digest(std::move(i), std::move(u), std::move(f));
}

std::string Digest(const ProfilingResult& result) {
  return Digest(result.inds, result.uccs, result.fds);
}

// The same digest from a muds_profile --json document (names -> indices).
std::string DigestJson(const muds::json::Value& doc) {
  std::map<std::string, int> index;
  if (const muds::json::Value* columns = doc.Find("columns")) {
    for (const muds::json::Value& name : columns->array) {
      index.emplace(name.string, static_cast<int>(index.size()));
    }
  }
  auto column = [&](const muds::json::Value* name) {
    if (name == nullptr) return -1;
    auto it = index.find(name->string);
    return it == index.end() ? -1 : it->second;
  };
  auto column_list = [&](const muds::json::Value* names) {
    std::vector<int> columns;
    if (names != nullptr) {
      for (const muds::json::Value& name : names->array) {
        columns.push_back(column(&name));
      }
    }
    std::sort(columns.begin(), columns.end());
    return columns;
  };
  std::vector<std::pair<int, int>> inds;
  std::vector<std::vector<int>> uccs;
  std::vector<std::pair<int, std::vector<int>>> fds;
  if (const muds::json::Value* list = doc.Find("inds")) {
    for (const muds::json::Value& ind : list->array) {
      inds.emplace_back(column(ind.Find("dependent")),
                        column(ind.Find("referenced")));
    }
  }
  if (const muds::json::Value* list = doc.Find("uccs")) {
    for (const muds::json::Value& ucc : list->array) {
      uccs.push_back(column_list(&ucc));
    }
  }
  if (const muds::json::Value* list = doc.Find("fds")) {
    for (const muds::json::Value& fd : list->array) {
      fds.emplace_back(column(fd.Find("rhs")), column_list(fd.Find("lhs")));
    }
  }
  return Digest(std::move(inds), std::move(uccs), std::move(fds));
}

// ----------------------------------------------------------- Workloads --

muds::UciProfile Uci(const std::string& name) {
  for (const muds::UciProfile& profile : muds::UciProfiles()) {
    if (profile.name == name) return profile;
  }
  std::fprintf(stderr, "unknown UCI profile %s\n", name.c_str());
  std::exit(2);
}

// A generated relation: `make(seed)` is deterministic in its data seed.
struct RelationSpec {
  std::string name;
  std::function<Relation(uint64_t data_seed)> make;
};

RelationSpec HepatitisColumns(int columns) {
  return {"hepatitis" + std::to_string(columns), [columns](uint64_t seed) {
            muds::UciProfile profile = Uci("hepatitis");
            profile.specs.resize(static_cast<size_t>(columns));
            return muds::MakeUciLike(profile, seed);
          }};
}

RelationSpec UciRows(const std::string& name, int64_t max_rows) {
  return {name, [name, max_rows](uint64_t seed) {
            const muds::UciProfile profile = Uci(name);
            return muds::MakeUciLike(profile, seed,
                                     std::min(profile.rows, max_rows));
          }};
}

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

struct WorkloadSpec {
  std::string name;
  /// ProfileOptions::num_threads (and CSV ingest threads) of the batch
  /// engines.
  int engine_threads = 1;
  /// Relations every engine profiles in-process (data seed 1; --seed only
  /// permutes their rows, so the dependency sets, and their recorded
  /// digests, are the same for every seed).
  std::vector<RelationSpec> batch;
  /// Bases of the served jobs: each fresh job is a row permutation of one
  /// base; append jobs add a delta batch generated from another data seed.
  std::vector<RelationSpec> serve_bases;
  int serve_base_seeds = 1;
  /// Poisson arrival rate of the nominal serving phase, jobs/s.
  double nominal_jps = 0;
};

std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> workloads;
  {
    WorkloadSpec w;
    w.name = "lattice_heavy";
    w.batch = {HepatitisColumns(16)};
    w.serve_bases = {HepatitisColumns(13)};
    w.serve_base_seeds = 4;
    w.nominal_jps = 30;
    workloads.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "intersect_heavy";
    w.batch = {UciRows("adult", 8000)};
    // The served mix: the Table 3 analogs of at most 13 columns.
    for (const char* name : {"iris", "balance", "chess", "abalone", "nursery",
                             "b-cancer", "bridges", "echocard"}) {
      w.serve_bases.push_back(UciRows(name, 8000));
    }
    w.nominal_jps = 25;
    workloads.push_back(std::move(w));
  }
  return workloads;
}

// --------------------------------------------------------------- Inputs --

std::vector<muds::RowId> Permutation(muds::RowId n, uint64_t seed) {
  std::vector<muds::RowId> rows(static_cast<size_t>(n));
  for (muds::RowId i = 0; i < n; ++i) rows[static_cast<size_t>(i)] = i;
  muds::Rng rng(seed);
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.NextBelow(i)]);
  }
  return rows;
}

struct BatchInput {
  std::string name;
  std::string csv;
};

// A served base: its CSV split into header and rows (fresh jobs permute the
// rows), its delta batches, and the in-process reference digests.
struct ServeBase {
  std::string header;
  std::vector<std::string> rows;
  std::string reference;
  std::vector<std::string> deltas;
  std::vector<std::string> delta_references;
};

struct Inputs {
  std::vector<BatchInput> batch;
  std::vector<ServeBase> serve;
};

muds::ProfileOptions ServeReferenceOptions() {
  // What the daemon runs per job: the default engine, one thread.
  muds::ProfileOptions options;
  options.num_threads = 1;
  return options;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line + '\n');
  return lines;
}

Inputs BuildInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  for (const RelationSpec& relation : spec.batch) {
    const Relation base = relation.make(1);
    inputs.batch.push_back(
        {relation.name, muds::CsvWriter::ToString(base.SelectRows(
                            Permutation(base.NumRows(), seed)))});
  }
  for (const RelationSpec& relation : spec.serve_bases) {
    for (int s = 1; s <= spec.serve_base_seeds; ++s) {
      ServeBase base;
      std::vector<std::string> lines =
          SplitLines(muds::CsvWriter::ToString(relation.make(s)));
      base.header = lines.front();
      base.rows.assign(lines.begin() + 1, lines.end());
      const Relation other = relation.make(static_cast<uint64_t>(1000 + s));
      const muds::RowId delta_rows = std::max<muds::RowId>(
          5, static_cast<muds::RowId>(base.rows.size() / 50));
      for (int d = 0; d < kDeltasPerBase; ++d) {
        std::vector<muds::RowId> pick(static_cast<size_t>(delta_rows));
        for (muds::RowId r = 0; r < delta_rows; ++r) {
          pick[static_cast<size_t>(r)] =
              (r + d * delta_rows) % other.NumRows();
        }
        const std::vector<std::string> delta =
            SplitLines(muds::CsvWriter::ToString(other.SelectRows(pick)));
        std::string text;
        for (size_t i = 1; i < delta.size(); ++i) text += delta[i];
        base.deltas.push_back(std::move(text));
      }
      inputs.serve.push_back(std::move(base));
    }
  }
  // Reference answers for every served payload, outside any timed window: a
  // base and each base+delta. Row permutations of a base have the base's
  // dependency sets, which the checks thereby also verify. Sequential, so
  // set-up time does not depend on how many cores the host grants at once.
  for (ServeBase& base : inputs.serve) {
    std::string csv = base.header;
    for (const std::string& row : base.rows) csv += row;
    base.reference =
        Digest(muds::ProfileCsvString(csv, ServeReferenceOptions()).value());
    for (const std::string& delta : base.deltas) {
      base.delta_references.push_back(
          Digest(muds::ProfileCsvStringWithAppends(csv, {delta},
                                                   ServeReferenceOptions())
                     .value()));
    }
  }
  return inputs;
}

// -------------------------------------------------------------- Metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& what) {
    ++failed;
    if (problems.size() < 20) problems.push_back(what);
  }
  void Mismatch(const std::string& what) {
    correct = false;
    Fail(what);
  }
};

// ---------------------------------------------------------------- Batch --

enum Engine { kMuds, kHfun, kBaseline, kAuto, kTane, kNumEngines };
constexpr const char* kEngineNames[] = {"muds", "hfun", "baseline", "auto",
                                        "tane"};
constexpr Algorithm kAlgorithms[] = {Algorithm::kMuds, Algorithm::kHolisticFun,
                                     Algorithm::kBaseline, Algorithm::kAuto};

muds::CsvOptions CsvFor(int threads) {
  muds::CsvOptions csv;
  csv.num_threads = threads;
  return csv;
}

// One engine call on one relation, timed as wall clock around the public
// entry point (never the phase sum).
struct Call {
  double wall_s = 0;
  ProfilingResult result;
};

Call RunEngine(Engine engine, const std::string& csv, int threads) {
  Call call;
  if (engine == kTane) {
    // TANE is timed like the engines: one read, dedup, discovery. Each
    // step is a benchmark-side span so the traced pass covers the call.
    const Clock::time_point start = Clock::now();
    std::optional<Relation> relation;
    {
      MUDS_TRACE_SPAN("tane.read");
      relation.emplace(
          muds::CsvReader::ReadString(csv, CsvFor(threads)).value());
    }
    std::optional<Relation> deduped;
    {
      MUDS_TRACE_SPAN("tane.dedup");
      deduped.emplace(muds::DeduplicateRows(*relation).relation);
    }
    muds::FdDiscoveryResult tane;
    {
      MUDS_TRACE_SPAN("tane.discover");
      tane = muds::Tane::Discover(*deduped);
    }
    call.wall_s = Seconds(start);
    call.result.uccs = std::move(tane.uccs);
    call.result.fds = std::move(tane.fds);
    return call;
  }
  muds::ProfileOptions options;
  options.algorithm = kAlgorithms[engine];
  options.num_threads = threads;
  options.csv = CsvFor(threads);
  const Clock::time_point start = Clock::now();
  muds::Result<ProfilingResult> result = muds::ProfileCsvString(csv, options);
  call.wall_s = Seconds(start);
  call.result = std::move(result).value();
  return call;
}

// Per-pass sums over the workload's relations.
struct Pass {
  double wall_s[kNumEngines] = {};
  double phase_coverage[kNumEngines] = {};  // Phase sum / wall.
  std::map<std::string, double> phase_ms;    // "<engine>.<phase>".
  std::vector<ProfilingResult> muds;         // Per relation.
  std::vector<ProfilingResult> baseline;
  int auto_picked_muds = 0;
};

Pass RunPass(const WorkloadSpec& spec, const Inputs& inputs,
             const std::map<std::string, std::string>& expected, bool traced,
             Report* report) {
  Pass pass;
  double phase_us[kNumEngines] = {};
  for (int e = 0; e < kNumEngines; ++e) {
    const Engine engine = static_cast<Engine>(e);
    for (const BatchInput& input : inputs.batch) {
      Call call;
      {
        // Benchmark-side span around the whole public call.
        std::optional<muds::TraceSpan> span;
        if (traced) span.emplace(std::string("call.") + kEngineNames[e]);
        call = RunEngine(engine, input.csv, spec.engine_threads);
      }
      pass.wall_s[e] += call.wall_s;
      ++report->attempted;
      const ProfilingResult& result = call.result;
      // Correctness outside the timed call: MUDS against the recorded
      // digest, the other engines against MUDS (TANE has no INDs).
      auto digest = [&](const ProfilingResult& r) {
        return e == kTane ? Digest({}, r.uccs, r.fds) : Digest(r);
      };
      if (e == kMuds) {
        auto it = expected.find(input.name);
        if (it == expected.end() || digest(result) != it->second) {
          report->Mismatch("muds on " + input.name + " != recorded digest");
        }
      } else if (digest(result) !=
                 digest(pass.muds[&input - inputs.batch.data()])) {
        report->Mismatch(std::string(kEngineNames[e]) + " on " + input.name +
                         " != muds");
      }
      if (e == kTane) continue;
      phase_us[e] += static_cast<double>(result.timings.TotalMicros());
      for (const auto& [phase, micros] : result.timings.entries()) {
        pass.phase_ms[std::string(kEngineNames[e]) + "." + phase] +=
            static_cast<double>(micros) / 1e3;
      }
      if (e == kAuto && result.algorithm_used == Algorithm::kMuds) {
        ++pass.auto_picked_muds;
      }
      if (e == kMuds) pass.muds.push_back(std::move(call.result));
      if (e == kBaseline) pass.baseline.push_back(std::move(call.result));
    }
    if (e != kTane) {
      pass.phase_coverage[e] = phase_us[e] / 1e6 / pass.wall_s[e];
    }
  }
  return pass;
}

// ----------------------------------------------------------- Layer probes --

// Median wall time of `body` over `repetitions` runs, in milliseconds.
double MedianMs(int repetitions, const std::function<void()>& body) {
  std::vector<double> samples;
  for (int i = 0; i < repetitions; ++i) {
    const Clock::time_point start = Clock::now();
    body();
    samples.push_back(Seconds(start) * 1e3);
  }
  return Median(samples);
}

// Per-call cost of `body` in the given unit scale, amortized over enough
// back-to-back calls that one timed batch takes at least ~200 us.
double PerCall(const std::function<void()>& body, double scale) {
  int calls = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < calls; ++i) body();
    const double elapsed = Seconds(start);
    if (elapsed >= 2e-4 || calls >= (1 << 20)) return elapsed * scale / calls;
    calls *= 4;
  }
}

void ProbeLayers(const WorkloadSpec& spec, const Inputs& inputs,
                 const std::vector<ProfilingResult>& muds_results,
                 Report* report) {
  constexpr int kRepetitions = 5;
  const muds::CsvOptions csv = CsvFor(spec.engine_threads);
  double bytes = 0;
  std::vector<Relation> loaded;
  std::vector<Relation> deduped;
  for (const BatchInput& input : inputs.batch) {
    bytes += static_cast<double>(input.csv.size());
    loaded.push_back(muds::CsvReader::ReadString(input.csv, csv).value());
    deduped.push_back(muds::DeduplicateRows(loaded.back()).relation);
  }

  // data: ingest and dedup; ind: SPIDER; pli: single-column PLI builds.
  const double read_ms = MedianMs(kRepetitions, [&] {
    for (const BatchInput& input : inputs.batch) {
      (void)muds::CsvReader::ReadString(input.csv, csv).value();
    }
  });
  report->Add("data.read_ms", read_ms, "ms");
  report->Add("data.read_mb_per_s", bytes / 1e6 / (read_ms / 1e3), "MB/s");
  report->Add("data.dedup_ms", MedianMs(kRepetitions, [&] {
                for (const Relation& r : loaded) (void)muds::DeduplicateRows(r);
              }),
              "ms");
  report->Add("ind.spider_ms", MedianMs(kRepetitions, [&] {
                for (const Relation& r : deduped) (void)muds::Spider::Discover(r);
              }),
              "ms");
  std::vector<std::vector<muds::Pli>> plis(deduped.size());
  report->Add("pli.build_ms", MedianMs(kRepetitions, [&] {
                for (size_t i = 0; i < deduped.size(); ++i) {
                  plis[i].clear();
                  for (int c = 0; c < deduped[i].NumColumns(); ++c) {
                    plis[i].push_back(muds::Pli::FromColumn(
                        deduped[i].GetColumn(c), deduped[i].NumRows()));
                  }
                }
              }),
              "ms");

  // pli kernels over the workload's own column pairs: intersect the two
  // columns' PLIs, then validate every other column against the pair (the
  // batched right-hand-side check of the lattice walks).
  std::vector<double> intersect_us;
  std::vector<double> refines_us;
  for (size_t i = 0; i < deduped.size(); ++i) {
    const int columns = deduped[i].NumColumns();
    for (int a = 0; a < columns; ++a) {
      for (int b = a + 1; b < columns; ++b) {
        const muds::Pli& left = plis[i][static_cast<size_t>(a)];
        const muds::Pli& right = plis[i][static_cast<size_t>(b)];
        intersect_us.push_back(
            PerCall([&] { (void)left.Intersect(right); }, 1e6));
        const muds::Pli pair = left.Intersect(right);
        std::vector<const muds::Column*> candidates;
        for (int c = 0; c < columns; ++c) {
          if (c != a && c != b) candidates.push_back(&deduped[i].GetColumn(c));
        }
        std::vector<uint8_t> valid;
        refines_us.push_back(
            PerCall([&] { pair.RefinesAll(candidates, &valid); }, 1e6));
      }
    }
  }
  const double intersect_median = Median(intersect_us);
  report->Add("pli.intersect_us", intersect_median, "us");
  report->Add("pli.refines_us", Median(refines_us), "us");

  // setops: replay the run's own lattice bookkeeping shapes. One trie holds
  // the minimal UCCs, one per right-hand side holds the FD left-hand sides;
  // probes are every FD's LHS and its one-column extensions.
  double subset_ns = 0, superset_ns = 0, collect_ns = 0;
  int64_t queries = 0;
  for (size_t i = 0; i < muds_results.size(); ++i) {
    const ProfilingResult& result = muds_results[i];
    const int columns = static_cast<int>(result.column_names.size());
    muds::SetTrie uccs;
    for (const ColumnSet& ucc : result.uccs) uccs.Insert(ucc);
    std::vector<muds::SetTrie> lhs_by_rhs(static_cast<size_t>(columns));
    for (const muds::Fd& fd : result.fds) {
      lhs_by_rhs[static_cast<size_t>(fd.rhs)].Insert(fd.lhs);
    }
    std::vector<std::pair<int, ColumnSet>> probes;
    for (const muds::Fd& fd : result.fds) {
      probes.emplace_back(fd.rhs, fd.lhs);
      for (int c = 0; c < columns; ++c) {
        if (c == fd.rhs || fd.lhs.Contains(c)) continue;
        ColumnSet extended = fd.lhs;
        extended.Add(c);
        probes.emplace_back(fd.rhs, extended);
      }
    }
    if (probes.empty()) continue;
    auto time_ns = [&](const std::function<void(int, const ColumnSet&)>& q) {
      std::vector<double> samples;
      for (int r = 0; r < 3; ++r) {
        const Clock::time_point start = Clock::now();
        for (const auto& [rhs, set] : probes) q(rhs, set);
        samples.push_back(Seconds(start) * 1e9);
      }
      return Median(samples);
    };
    volatile size_t sink = 0;
    subset_ns += time_ns([&](int rhs, const ColumnSet& set) {
      sink = sink + lhs_by_rhs[static_cast<size_t>(rhs)].ContainsSubsetOf(set) +
             uccs.ContainsSubsetOf(set);
    }) / 2;
    superset_ns += time_ns([&](int rhs, const ColumnSet& set) {
      sink = sink +
             lhs_by_rhs[static_cast<size_t>(rhs)].ContainsSupersetOf(set) +
             uccs.ContainsSupersetOf(set);
    }) / 2;
    collect_ns += time_ns([&](int rhs, const ColumnSet& set) {
      sink = sink +
             lhs_by_rhs[static_cast<size_t>(rhs)].CollectSupersetsOf(set).size();
    });
    queries += static_cast<int64_t>(probes.size());
  }
  const double per = queries > 0 ? 1.0 / static_cast<double>(queries) : 0;
  report->Add("setops.subset_query_ns", subset_ns * per, "ns");
  report->Add("setops.superset_query_ns", superset_ns * per, "ns");
  report->Add("setops.collect_supersets_ns", collect_ns * per, "ns");
  report->Add("setops.replay_queries", static_cast<double>(queries), "count");
  report->Add("pli.intersect_probe_pairs",
              static_cast<double>(intersect_us.size()), "count");
}

// Exact work counters of the MUDS and baseline runs, summed over relations.
void ReportCounters(const Pass& pass, Report* report) {
  auto sum_metric = [](const std::vector<ProfilingResult>& results,
                       const std::string& name) {
    double total = 0;
    for (const ProfilingResult& r : results) {
      total += static_cast<double>(Find(r.metrics, name));
    }
    return total;
  };
  auto sum_counter = [&](const std::string& name) {
    double total = 0;
    for (const ProfilingResult& r : pass.muds) {
      total += static_cast<double>(Find(r.counters, name));
    }
    return total;
  };
  double fds = 0;
  for (const ProfilingResult& r : pass.muds) fds += static_cast<double>(r.fds.size());

  report->Add("ingest.records", sum_metric(pass.baseline, "ingest.records"),
              "count");
  report->Add("ingest.bytes", sum_metric(pass.baseline, "ingest.bytes"),
              "bytes");
  report->Add("spider.value_groups",
              sum_metric(pass.muds, "spider.value_groups"), "count");
  const double intersects = sum_metric(pass.muds, "pli_cache.intersects");
  report->Add("pli_cache.intersects", intersects, "count");
  const double hits = sum_metric(pass.muds, "pli_cache.hits");
  const double lookups = hits + sum_metric(pass.muds, "pli_cache.misses");
  report->Add("pli_cache.lookups", lookups, "count");
  report->Add("pli_cache.hit_ratio", lookups > 0 ? hits / lookups : 0,
              "ratio");
  report->Add("pli_cache.bytes_cached", sum_counter("pli_cache_bytes"),
              "bytes");
  const double fd_checks = sum_metric(pass.muds, "muds.fd_checks");
  report->Add("muds.fd_checks", fd_checks, "count");
  report->Add("muds.completion.nodes_visited",
              sum_metric(pass.muds, "muds.completion.nodes_visited"), "count");
  report->Add("muds.rz.nodes_visited",
              sum_metric(pass.muds, "muds.rz.nodes_visited"), "count");
  report->Add("muds.connector_lookups",
              sum_metric(pass.muds, "muds.connector_lookups"), "count");
  report->Add("ducc.uniqueness_checks",
              sum_metric(pass.muds, "ducc.uniqueness_checks"), "count");
  report->Add("muds.fd_yield", fd_checks > 0 ? fds / fd_checks : 0, "ratio");
  report->Add("core.auto_pick_muds", pass.auto_picked_muds, "count");
}

// ---------------------------------------------------------- Traced pass --

// Layer of a span name: engine phases and the benchmark's own spans.
const char* LayerOf(const std::string& name) {
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"tane.read", "data"},     {"tane.dedup", "data"},
      {"load", "data"},          {"dedup", "data"},
      {"ingest.", "data"},       {"SPIDER", "ind"},
      {"spider", "ind"},         {"pliCache", "pli"},
      {"DUCC", "ucc"},           {"FUN", "fd"},
      {"tane.discover", "fd"},   {"call.", "common"},
  };
  for (const auto& [prefix, layer] : kPrefixes) {
    if (name.rfind(prefix, 0) == 0) return layer;
  }
  return "core";  // MUDS phases, autoSelect, evidence, incremental.
}

void ReportTrace(const std::vector<muds::TraceEvent>& events, double traced_s,
                 double untraced_s, Report* report) {
  report->Add("trace.overhead_pct", (traced_s / untraced_s - 1) * 100, "%");
  // Self time per layer on the calling thread: each span minus its direct
  // children. "call.<engine>" spans keep only what no engine span
  // covers (result assembly, metric deltas), attributed to common.
  uint32_t main_tid = 0;
  for (const muds::TraceEvent& event : events) {
    if (event.name.rfind("call.", 0) == 0) {
      main_tid = event.tid;
      break;
    }
  }
  std::map<std::string, double> layer_us;
  double min_coverage = 1;
  std::vector<const muds::TraceEvent*> stack;
  std::vector<double> child_us;  // Parallel to stack.
  auto close_until = [&](int64_t begin_us) {
    while (!stack.empty() && stack.back()->end_us <= begin_us) {
      const muds::TraceEvent* done = stack.back();
      const double duration = static_cast<double>(done->end_us - done->begin_us);
      const double self = duration - child_us.back();
      layer_us[LayerOf(done->name)] += self;
      const bool is_call = stack.size() == 1;
      if (is_call && duration > 0) {
        min_coverage = std::min(min_coverage, child_us.back() / duration);
      }
      stack.pop_back();
      child_us.pop_back();
      if (!child_us.empty()) child_us.back() += duration;
    }
  };
  for (const muds::TraceEvent& event : events) {
    if (event.tid != main_tid) continue;
    close_until(event.begin_us);
    stack.push_back(&event);
    child_us.push_back(0);
  }
  close_until(INT64_MAX);
  double total_us = 0;
  for (const auto& [layer, us] : layer_us) total_us += us;
  for (const char* layer :
       {"data", "ind", "pli", "ucc", "fd", "core", "common"}) {
    report->Add(std::string("layer.") + layer + "_pct",
                total_us > 0 ? layer_us[layer] / total_us * 100 : 0, "%");
  }
  report->Add("trace.span_coverage_min_pct", min_coverage * 100, "%");
}

// ---------------------------------------------------------------- Serve --

struct ServeTotals {
  std::vector<JobOutcome> nominal;
  double max_jps = 0;
  int64_t max_backlog = 0;
  double rss_growth_mb = 0;
  double peak_rss_mb = 0;
  double rtt_ms = 0;
  int64_t coalesced = 0;
};

// Draws the open-loop job mix from the seed; remembers recent payloads for
// repeats and appends across phases.
class JobMaker {
 public:
  JobMaker(const Inputs& inputs, uint64_t seed) : inputs_(inputs), rng_(seed) {}

  std::vector<double> Arrivals(double rate, double seconds) {
    // A Poisson process conditioned on its count: uniform order statistics.
    const size_t n = static_cast<size_t>(std::llround(rate * seconds));
    std::vector<double> due(n);
    for (double& t : due) t = Uniform() * seconds;
    std::sort(due.begin(), due.end());
    return due;
  }

  Job Next() {
    const double u = Uniform();
    Job job;
    if (u < kRepeatShare && !recent_.empty()) {
      job = recent_[rng_.NextBelow(recent_.size())];
      job.kind = JobKind::kRepeat;
    } else if (u < kRepeatShare + kAppendShare && !fresh_.empty()) {
      const Fresh& base = fresh_[rng_.NextBelow(fresh_.size())];
      const ServeBase& serve = inputs_.serve[base.index];
      const size_t d = rng_.NextBelow(serve.deltas.size());
      job.kind = JobKind::kAppend;
      job.request = std::make_shared<const std::string>(
          "{\"cmd\":\"submit\",\"csv\":" + base.quoted_csv +
          ",\"appends\":[" + muds::json::Quote(serve.deltas[d]) + "]}");
      job.expected = serve.delta_references[d];
    } else {
      const size_t index = rng_.NextBelow(inputs_.serve.size());
      const ServeBase& serve = inputs_.serve[index];
      std::string csv = serve.header;
      for (muds::RowId r : Permutation(
               static_cast<muds::RowId>(serve.rows.size()), rng_.Next())) {
        csv += serve.rows[static_cast<size_t>(r)];
      }
      Fresh fresh{index, muds::json::Quote(csv)};
      job.kind = JobKind::kFresh;
      job.request = std::make_shared<const std::string>(
          "{\"cmd\":\"submit\",\"csv\":" + fresh.quoted_csv + "}");
      job.expected = serve.reference;
      Remember(&fresh_, std::move(fresh), kRecentFresh);
    }
    Remember(&recent_, job, kRecentJobs);
    return job;
  }

 private:
  struct Fresh {
    size_t index;
    std::string quoted_csv;
  };

  template <typename T>
  static void Remember(std::vector<T>* ring, T value, size_t capacity) {
    if (ring->size() == capacity) ring->erase(ring->begin());
    ring->push_back(std::move(value));
  }

  double Uniform() {
    return static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;
  }

  const Inputs& inputs_;
  muds::Rng rng_;
  std::vector<Job> recent_;
  std::vector<Fresh> fresh_;
};

int64_t ServeCounter(Connection& connection, const char* name) {
  muds::Result<std::string> response = connection.Call("{\"cmd\":\"stats\"}");
  if (!response.ok()) return 0;
  muds::Result<muds::json::Value> parsed = muds::json::Parse(response.value());
  if (!parsed.ok()) return 0;
  const muds::json::Value* serve = parsed.value().Find("serve");
  const muds::json::Value* value =
      serve != nullptr ? serve->Find(name) : nullptr;
  return value != nullptr && value->IsNumber()
             ? static_cast<int64_t>(value->number)
             : 0;
}

void CountJobs(const std::vector<JobOutcome>& jobs, Report* report) {
  for (const JobOutcome& job : jobs) {
    ++report->attempted;
    if (job.mismatch) {
      report->Mismatch(std::string("serve ") + JobKindName(job.kind) +
                       " job: " + job.error);
    } else if (!job.ok) {
      report->Fail(std::string("serve ") + JobKindName(job.kind) +
                   " job: " + job.error);
    }
  }
}

ServeTotals RunServe(const WorkloadSpec& spec, const Inputs& inputs,
                     Daemon& daemon, int daemon_threads, uint64_t seed,
                     double seconds, Report* report) {
  ServeTotals totals;
  const int collectors = kCollectors;
  std::unique_ptr<Connection> submitter =
      Connection::Open(daemon.port()).value();
  std::vector<std::unique_ptr<Connection>> collector_connections;
  for (int i = 0; i < collectors; ++i) {
    collector_connections.push_back(Connection::Open(daemon.port()).value());
  }
  totals.rtt_ms = StatsRoundTripMs(*submitter, 200);
  JobMaker maker(inputs, seed ^ 0x5e77e5eedULL);
  const ResultDigester digest = DigestJson;
  auto run = [&](double rate, double duration) {
    const std::vector<double> due = maker.Arrivals(rate, duration);
    PhaseResult phase =
        RunPhase(*submitter, collector_connections, due.size(), due,
                 [&](size_t) { return maker.Next(); }, digest);
    CountJobs(phase.jobs, report);
    return phase;
  };

  // Warm-up at the nominal rate, discarded; then the ladder, stopping at
  // the first rung that misses its limits.
  run(spec.nominal_jps, kWarmupShare * seconds);
  const double rss_after_warmup_kb = static_cast<double>(daemon.RssKb());
  const int64_t coalesced_before =
      ServeCounter(*submitter, "serve.catalog_coalesced");
  double last_load = 0;
  const double rung_s = kLadderShare * seconds / std::size(kLadder);
  for (size_t rung = 0; rung <= std::size(kLadder); ++rung) {
    const double rate =
        spec.nominal_jps * (rung == 0 ? 1.0 : kLadder[rung - 1]);
    const PhaseResult phase =
        run(rate, rung == 0 ? kNominalShare * seconds : rung_s);
    if (rung == 0) {
      totals.nominal = phase.jobs;
      totals.coalesced = ServeCounter(*submitter, "serve.catalog_coalesced") -
                         coalesced_before;
    }
    std::vector<double> latency, late;
    bool all_ok = true;
    for (const JobOutcome& job : phase.jobs) {
      latency.push_back(job.latency_ms);
      late.push_back(job.late_ms);
      all_ok = all_ok && job.ok;
    }
    totals.max_backlog = std::max(totals.max_backlog, phase.backlog_at_end);
    // How far the rung is from its limits: <= 1 passes.
    const double load = std::max(
        {all_ok ? 0.0 : 2.0, Percentile(latency, 99) / kP99LimitMs,
         Median(late) / kMaxGeneratorLateMs,
         static_cast<double>(phase.backlog_at_end) /
             (kMaxBacklogPerThread * daemon_threads)});
    // Sustained throughput: completed jobs over the rung's wall time,
    // including the drain after its last arrival.
    const double achieved =
        static_cast<double>(phase.jobs.size()) / phase.elapsed_s;
    std::fprintf(stderr,
                 "rung %.0f jobs/s: %zu jobs, p99 %.1f ms, late p50 %.2f ms,"
                 " backlog %lld, load %.2f -> %s\n",
                 rate, phase.jobs.size(), Percentile(latency, 99),
                 Median(late),
                 static_cast<long long>(phase.backlog_at_end), load,
                 load <= 1 ? "pass" : "miss");
    if (load > 1) {
      // Interpolate where the load crossed 1 between the last passing rung
      // (or an idle daemon: no jobs, no load) and this one, so the figure
      // does not jump by whole rungs.
      totals.max_jps += (achieved - totals.max_jps) * (1 - last_load) /
                        (load - last_load);
      break;
    }
    totals.max_jps = achieved;
    last_load = load;
  }
  totals.rss_growth_mb =
      (static_cast<double>(daemon.RssKb()) - rss_after_warmup_kb) / 1024;
  totals.peak_rss_mb = static_cast<double>(daemon.PeakRssKb()) / 1024;
  return totals;
}

void ReportServeLayers(const ServeTotals& totals, Report* report) {
  // Latency at the nominal rate. Not gated: on a shared host these move by
  // more than the largest bound between identical runs (see README.md).
  std::vector<double> all, repeat, append;
  for (const JobOutcome& job : totals.nominal) {
    all.push_back(job.latency_ms);
    if (job.kind == JobKind::kRepeat) repeat.push_back(job.latency_ms);
    if (job.kind == JobKind::kAppend) append.push_back(job.latency_ms);
  }
  report->Add("serve_p50_ms", Median(all), "ms");
  report->Add("serve_p99_ms", Percentile(all, 99), "ms");
  report->Add("serve_p50_ms.repeat", Median(repeat), "ms");
  report->Add("serve_p50_ms.append", Median(append), "ms");
  report->Add("serve.nominal_jobs", static_cast<double>(all.size()), "count");

  std::vector<double> queue_wait, late, latency;
  double bytes = 0, screened = 0, revalidated = 0;
  int64_t repeats = 0, repeat_hits = 0;
  for (const JobOutcome& job : totals.nominal) {
    queue_wait.push_back(job.queue_wait_ms);
    late.push_back(job.late_ms);
    latency.push_back(job.latency_ms);
    bytes += static_cast<double>(job.response_bytes);
    if (job.kind == JobKind::kRepeat) {
      ++repeats;
      repeat_hits += job.catalog_hit;
    }
    if (job.kind == JobKind::kAppend) {
      screened += static_cast<double>(job.screened_out);
      revalidated += static_cast<double>(job.revalidated);
    }
  }
  const double jobs = std::max<double>(1, static_cast<double>(totals.nominal.size()));
  report->Add("serve.rtt_ms", totals.rtt_ms, "ms");
  report->Add("serve.queue_wait_ms.p50", Median(queue_wait), "ms");
  report->Add("serve.queue_wait_ms.p99", Percentile(queue_wait, 99), "ms");
  report->Add("serve.catalog_hit_ratio",
              repeats > 0 ? static_cast<double>(repeat_hits) /
                                static_cast<double>(repeats)
                          : 0,
              "ratio");
  report->Add("serve.coalesced", static_cast<double>(totals.coalesced),
              "count");
  report->Add("serve.result_kb", bytes / jobs / 1024, "KiB");
  report->Add("serve.backlog", static_cast<double>(totals.max_backlog),
              "jobs");
  report->Add("serve.rss_growth_mb", totals.rss_growth_mb, "MB");
  report->Add("serve.gen_late_ms.p99", Percentile(late, 99), "ms");
  report->Add("incremental.revalidated", revalidated, "count");
  report->Add("incremental.screened_ratio",
              screened + revalidated > 0
                  ? screened / (screened + revalidated)
                  : 0,
              "ratio");
  double queue_sum = 0, latency_sum = 0;
  for (size_t i = 0; i < latency.size(); ++i) {
    queue_sum += queue_wait[i];
    latency_sum += latency[i];
  }
  report->Add("layer.serve_queue_pct",
              latency_sum > 0 ? queue_sum / latency_sum * 100 : 0, "%");
}

// ----------------------------------------------------------------- Main --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool record = false;
  std::string daemon;
  std::string expected;
  std::string out_dir = ".";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --daemon PATH --expected FILE "
               "[--out-dir DIR] [--record]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      args.record = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed expects an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) {
        Usage("--seconds expects a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace expects 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--daemon") {
      args.daemon = value;
    } else if (flag == "--expected") {
      args.expected = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

std::map<std::string, std::string> LoadExpected(const std::string& path,
                                                const std::string& workload) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  muds::Result<muds::json::Value> parsed = muds::json::Parse(text.str());
  std::map<std::string, std::string> expected;
  if (!parsed.ok()) return expected;
  if (const muds::json::Value* entries = parsed.value().Find(workload)) {
    for (const auto& [name, digest] : entries->object) {
      expected[name] = digest.string;
    }
  }
  return expected;
}

std::string Provenance(const WorkloadSpec& spec) {
  const muds::BuildInfo build = muds::GetBuildInfo();
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  char text[512];
  std::snprintf(text, sizeof(text),
                "provenance: git=%s compiler=\"%s\" simd=%s build_type=%s "
                "cpu=\"%s\" hardware_threads=%d engine_threads=%d",
                build.git, build.compiler, build.simd, PERFBENCH_BUILD_TYPE,
                cpu.c_str(), HardwareThreads(), spec.engine_threads);
  return text;
}

std::string FormatNumber(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", std::isfinite(value) ? value : 0);
  return text;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::vector<WorkloadSpec> workloads = Workloads();
  auto spec_it = std::find_if(
      workloads.begin(), workloads.end(),
      [&](const WorkloadSpec& w) { return w.name == args.workload; });
  if (spec_it == workloads.end()) Usage("unknown workload");
  const WorkloadSpec& spec = *spec_it;
  std::printf("%s\n", Provenance(spec).c_str());

  if (args.record) {
    std::string out = "{";
    for (const RelationSpec& relation : spec.batch) {
      muds::ProfileOptions options;
      const ProfilingResult result =
          muds::ProfileCsvString(muds::CsvWriter::ToString(relation.make(1)),
                                 options)
              .value();
      if (out.size() > 1) out += ", ";
      out += muds::json::Quote(relation.name) + ": \"" + Digest(result) + "\"";
    }
    std::printf("%s}\n", out.c_str());
    return 0;
  }
  if (args.daemon.empty() || args.expected.empty()) {
    Usage("--daemon and --expected are required");
  }
  const std::map<std::string, std::string> expected =
      LoadExpected(args.expected, spec.name);
  if (expected.empty()) Usage("no recorded digests for this workload");

  Report report;
  // Set-up: inputs, reference answers, daemon start — repeated; the median
  // is reported, the last one is kept.
  // The daemon gets all cores but one; the load generator keeps the last,
  // so generator lateness measures the daemon, not CPU contention with it.
  const int daemon_threads = std::max(1, HardwareThreads() - 1);
  std::vector<double> setup_s;
  Inputs inputs;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    daemon.reset();
    const Clock::time_point start = Clock::now();
    inputs = BuildInputs(spec, args.seed);
    muds::Result<std::unique_ptr<Daemon>> started =
        Daemon::Start(args.daemon, daemon_threads);
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   started.status().ToString().c_str());
      return 2;
    }
    daemon = std::move(started).value();
    setup_s.push_back(Seconds(start));
  }

  // Batch: one untimed warm-up pass, then passes until the window is spent.
  const double batch_window_s = kBatchShare * args.seconds;
  (void)RunPass(spec, inputs, expected, false, &report);
  std::vector<Pass> passes;
  const Clock::time_point batch_start = Clock::now();
  while (passes.size() < 3 ||
         (Seconds(batch_start) < batch_window_s && passes.size() < 200)) {
    // Only the last pass's results are read (counters, layer probes);
    // keeping every pass's would grow peak_rss_mb with the run's length.
    if (!passes.empty()) {
      passes.back().muds.clear();
      passes.back().baseline.clear();
    }
    passes.push_back(RunPass(spec, inputs, expected, false, &report));
  }
  // Each engine's median pass. The minimum of a window rests on its one
  // luckiest pass and spreads about twice as far between runs on a shared
  // host (see README.md).
  double engine_s[kNumEngines];
  for (int e = 0; e < kNumEngines; ++e) {
    std::vector<double> samples;
    for (const Pass& pass : passes) samples.push_back(pass.wall_s[e]);
    engine_s[e] = Median(samples);
  }

  ServeTotals serve = RunServe(spec, inputs, *daemon, daemon_threads,
                               args.seed, args.seconds, &report);
  if (!daemon->Stop().ok()) report.Fail("daemon did not shut down cleanly");

  if (!args.trace) {
    for (int e = 0; e < kNumEngines; ++e) {
      report.Add(std::string(kEngineNames[e]) + "_s", engine_s[e], "s");
    }
    report.Add("setup_s", Median(setup_s), "s");
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    report.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024,
               "MB");
    report.Add("serve_max_jps", serve.max_jps, "1/s");
    report.Add("serve_peak_rss_mb", serve.peak_rss_mb, "MB");
  } else {
    // Phase timings (median over passes), then exact counters.
    auto phase_median = [&](const std::vector<std::string>& phases) {
      std::vector<double> samples;
      for (const Pass& pass : passes) {
        double total = 0;
        for (const std::string& phase : phases) {
          auto it = pass.phase_ms.find(phase);
          if (it != pass.phase_ms.end()) total += it->second;
        }
        samples.push_back(total);
      }
      return Median(samples);
    };
    report.Add("ucc.ducc_ms", phase_median({"muds.DUCC"}), "ms");
    report.Add("fd.fun_ms", phase_median({"hfun.FUN"}), "ms");
    report.Add("muds.minimize_fds_ms", phase_median({"muds.minimizeFDs"}),
               "ms");
    report.Add("muds.calculate_rz_ms", phase_median({"muds.calculateRZ"}),
               "ms");
    report.Add("muds.completion_ms",
               phase_median({"muds.exhaustiveCompletion"}), "ms");
    report.Add("muds.shadowed_ms",
               phase_median({"muds.generateShadowedTasks",
                             "muds.minimizeShadowedTasks"}),
               "ms");
    std::vector<double> coverage;
    for (const Pass& pass : passes) {
      double worst = 1;
      for (int e = 0; e < kTane; ++e) {
        worst = std::min(worst, pass.phase_coverage[e]);
      }
      coverage.push_back(worst);
    }
    report.Add("core.phase_coverage", Median(coverage), "ratio");
    const Pass& last = passes.back();
    ReportCounters(last, &report);
    ProbeLayers(spec, inputs, last.muds, &report);
    // Computed, not measured: exact intersect count x median per-call cost,
    // as a share of MUDS' wall time.
    auto value = [&](const std::string& name) {
      for (const Metric& metric : report.metrics) {
        if (metric.name == name) return metric.value;
      }
      return 0.0;
    };
    report.Add("pli.intersect_share_pct.computed",
               value("pli_cache.intersects") * value("pli.intersect_us") /
                   1e6 / engine_s[kMuds] * 100,
               "%");

    // Traced passes alternate with untraced ones, so the overhead compares
    // neighbours in time; the last traced pass is exported as a Chrome
    // trace and split by layer.
    muds::TraceCollector& collector = muds::TraceCollector::Global();
    double traced_s = 0, untraced_s = 0;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      const Pass untraced = RunPass(spec, inputs, expected, false, &report);
      collector.Start();
      const Pass traced = RunPass(spec, inputs, expected, true, &report);
      collector.Stop();
      for (int e = 0; e < kNumEngines; ++e) {
        traced_s += traced.wall_s[e];
        untraced_s += untraced.wall_s[e];
      }
    }
    const std::vector<muds::TraceEvent> events = collector.Events();
    const muds::Status written = collector.WriteChromeTrace(
        args.out_dir + "/perfbench_trace_" + spec.name + ".json");
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    }
    ReportTrace(events, traced_s, untraced_s, &report);
    ReportServeLayers(serve, &report);
  }

  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", problem.c_str());
  }
  std::string metrics;
  for (const Metric& metric : report.metrics) {
    std::printf("%-34s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += muds::json::Quote(metric.name) + ": {\"value\": " +
               FormatNumber(metric.value) +
               ", \"unit\": " + muds::json::Quote(metric.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
