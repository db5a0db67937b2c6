#include "pli/position_list_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/simd.h"

namespace muds {

namespace {

// Reusable per-thread scratch for the PLI kernels. Buffers grow to the
// high-water mark of the thread's workload and are then reused for every
// build/intersect/refinement — the kernels themselves perform no heap
// allocation beyond the exact-size buffers of a returned Pli. (§6.4 names
// the PLI intersect as the dominant profiling cost; on short relations the
// old nested-vector code spent most of that cost in the allocator.)
struct Arena {
  std::vector<int32_t> probe;       // Cluster id per row, -1 for singletons.
  std::vector<uint32_t> count;      // Per-target-cluster occurrence counts.
  std::vector<uint32_t> cursor;     // Per-target-cluster write positions.
  std::vector<int32_t> touched;     // Target ids hit by the current cluster.
  std::vector<RowId> scratch_rows;  // Compacted result rows.
  std::vector<uint32_t> scratch_offsets;
  std::vector<int32_t> expected;    // RefinesAll: code per (cluster, cand).
};

thread_local Arena t_arena;

constexpr uint32_t kSkip = std::numeric_limits<uint32_t>::max();

}  // namespace

Pli::Pli(std::vector<RowId> rows, std::vector<uint32_t> offsets,
         RowId num_rows)
    : rows_(std::move(rows)), offsets_(std::move(offsets)),
      num_rows_(num_rows) {
  MUDS_DCHECK(!offsets_.empty() && offsets_.front() == 0 &&
              offsets_.back() == rows_.size());
}

Pli::Pli(const std::vector<Cluster>& clusters, RowId num_rows)
    : num_rows_(num_rows) {
  size_t total = 0;
  for (const Cluster& cluster : clusters) {
    MUDS_DCHECK(cluster.size() >= 2);
    total += cluster.size();
  }
  rows_.reserve(total);
  offsets_.reserve(clusters.size() + 1);
  offsets_.push_back(0);
  for (const Cluster& cluster : clusters) {
    rows_.insert(rows_.end(), cluster.begin(), cluster.end());
    offsets_.push_back(static_cast<uint32_t>(rows_.size()));
  }
}

Pli Pli::FromColumn(const Column& column, RowId num_rows) {
  MUDS_CHECK(static_cast<RowId>(column.codes.size()) == num_rows);
  const size_t cardinality = column.dictionary.size();
  Arena& arena = t_arena;

  // Counting sort over the dictionary codes: count, size the result
  // exactly, then scatter. Clusters come out in code (i.e. value) order and
  // rows in ascending row order — the same layout the nested builder
  // produced.
  arena.count.assign(cardinality, 0);
  for (RowId row = 0; row < num_rows; ++row) {
    ++arena.count[static_cast<size_t>(column.codes[static_cast<size_t>(row)])];
  }
  size_t out_rows = 0;
  size_t out_clusters = 0;
  for (size_t c = 0; c < cardinality; ++c) {
    if (arena.count[c] >= 2) {
      out_rows += arena.count[c];
      ++out_clusters;
    }
  }
  std::vector<RowId> rows(out_rows);
  std::vector<uint32_t> offsets;
  offsets.reserve(out_clusters + 1);
  offsets.push_back(0);
  if (arena.cursor.size() < cardinality) arena.cursor.resize(cardinality);
  uint32_t position = 0;
  for (size_t c = 0; c < cardinality; ++c) {
    if (arena.count[c] >= 2) {
      arena.cursor[c] = position;
      position += arena.count[c];
      offsets.push_back(position);
    } else {
      arena.cursor[c] = kSkip;
    }
  }
  for (RowId row = 0; row < num_rows; ++row) {
    const size_t c =
        static_cast<size_t>(column.codes[static_cast<size_t>(row)]);
    if (arena.cursor[c] != kSkip) rows[arena.cursor[c]++] = row;
  }
  return Pli(std::move(rows), std::move(offsets), num_rows);
}

Pli Pli::MergeAppend(const Pli& old, const Column& column,
                     const ColumnAppendDelta& delta, RowId num_rows) {
  const RowId old_rows = old.NumRows();
  MUDS_CHECK(static_cast<RowId>(column.codes.size()) == num_rows &&
             old_rows <= num_rows);
  const size_t cardinality = column.dictionary.size();
  MUDS_CHECK(delta.old_count.size() == cardinality);
  Arena& arena = t_arena;
  const int32_t* codes = column.codes.data();

  // Group the appended suffix by code: count, then scatter into the arena
  // (FromColumn's counting-sort idiom, over the suffix only).
  arena.count.assign(cardinality, 0);
  for (RowId row = old_rows; row < num_rows; ++row) {
    ++arena.count[static_cast<size_t>(codes[static_cast<size_t>(row)])];
  }
  const size_t suffix_len = static_cast<size_t>(num_rows - old_rows);
  if (arena.cursor.size() < cardinality) arena.cursor.resize(cardinality);
  if (arena.scratch_rows.size() < suffix_len) {
    arena.scratch_rows.resize(suffix_len);
  }
  uint32_t position = 0;
  for (size_t c = 0; c < cardinality; ++c) {
    arena.cursor[c] = position;
    position += arena.count[c];
  }
  for (RowId row = old_rows; row < num_rows; ++row) {
    const size_t c = static_cast<size_t>(codes[static_cast<size_t>(row)]);
    arena.scratch_rows[arena.cursor[c]++] = row;
  }
  // Suffix rows of code c now sit at [cursor[c] - count[c], cursor[c]).

  size_t out_rows = 0;
  size_t out_clusters = 0;
  for (size_t c = 0; c < cardinality; ++c) {
    // old_count is the full pre-append occurrence count, so it equals the
    // old cluster size when >= 2 and counts the stripped singleton when 1.
    const uint32_t total =
        static_cast<uint32_t>(delta.old_count[c]) + arena.count[c];
    if (total >= 2) {
      out_rows += total;
      ++out_clusters;
    }
  }

  std::vector<RowId> rows(out_rows);
  std::vector<uint32_t> offsets;
  offsets.reserve(out_clusters + 1);
  offsets.push_back(0);
  // Old clusters arrive in code order (remaps are order-preserving), so one
  // merged walk over the codes emits the result in code order — the exact
  // layout FromColumn would produce over the grown column.
  int64_t next_old_cluster = 0;
  uint32_t out = 0;
  for (size_t c = 0; c < cardinality; ++c) {
    const uint32_t suffix_count = arena.count[c];
    const uint32_t old_count = static_cast<uint32_t>(delta.old_count[c]);
    if (old_count + suffix_count < 2) continue;
    if (old_count >= 2) {
      const std::span<const RowId> old_cluster =
          old.cluster(next_old_cluster++);
      MUDS_DCHECK(old_cluster.size() == old_count);
      std::copy(old_cluster.begin(), old_cluster.end(), rows.begin() + out);
      out += old_count;
    } else if (old_count == 1) {
      MUDS_DCHECK(delta.old_row_of_code[c] != ColumnAppendDelta::kNoRow);
      rows[out++] = delta.old_row_of_code[c];
    }
    const uint32_t suffix_begin = arena.cursor[c] - suffix_count;
    std::copy(arena.scratch_rows.begin() + suffix_begin,
              arena.scratch_rows.begin() + arena.cursor[c],
              rows.begin() + out);
    out += suffix_count;
    offsets.push_back(out);
  }
  MUDS_DCHECK(next_old_cluster == old.NumClusters());
  return Pli(std::move(rows), std::move(offsets), num_rows);
}

Pli Pli::ForEmptySet(RowId num_rows) {
  std::vector<RowId> rows;
  std::vector<uint32_t> offsets = {0};
  if (num_rows >= 2) {
    rows.resize(static_cast<size_t>(num_rows));
    std::iota(rows.begin(), rows.end(), RowId{0});
    offsets.push_back(static_cast<uint32_t>(num_rows));
  }
  return Pli(std::move(rows), std::move(offsets), num_rows);
}

Pli Pli::Intersect(const Pli& other) const {
  MUDS_CHECK(num_rows_ == other.num_rows_);
  // Probe with the PLI that has fewer clustered rows: rows outside its
  // clusters can never appear in an intersected cluster.
  const Pli& small =
      NumNonSingletonRows() <= other.NumNonSingletonRows() ? *this : other;
  const Pli& large = &small == this ? other : *this;

  Arena& arena = t_arena;
  large.FillProbeTable(&arena.probe);

  // Bucket compaction per small cluster: count the rows landing in each
  // probe cluster, assign contiguous ranges for the survivors (count >= 2),
  // scatter the rows, and reset the touched counters — all inside the
  // arena, with the compacted result laid out flat as it is produced.
  const size_t num_large = static_cast<size_t>(large.NumClusters());
  arena.count.assign(num_large, 0);
  if (arena.cursor.size() < num_large) arena.cursor.resize(num_large);
  const size_t max_rows = static_cast<size_t>(small.NumNonSingletonRows());
  if (arena.scratch_rows.size() < max_rows) arena.scratch_rows.resize(max_rows);
  arena.scratch_offsets.clear();
  arena.scratch_offsets.push_back(0);

  uint32_t out_position = 0;
  const int64_t num_small = small.NumClusters();
  for (int64_t i = 0; i < num_small; ++i) {
    const std::span<const RowId> cluster = small.cluster(i);
    arena.touched.clear();
    for (const RowId row : cluster) {
      const int32_t id = arena.probe[static_cast<size_t>(row)];
      if (id < 0) continue;
      if (arena.count[static_cast<size_t>(id)] == 0) arena.touched.push_back(id);
      ++arena.count[static_cast<size_t>(id)];
    }
    for (const int32_t id : arena.touched) {
      const uint32_t count = arena.count[static_cast<size_t>(id)];
      if (count >= 2) {
        arena.cursor[static_cast<size_t>(id)] = out_position;
        out_position += count;
        arena.scratch_offsets.push_back(out_position);
      } else {
        arena.cursor[static_cast<size_t>(id)] = kSkip;
      }
    }
    for (const RowId row : cluster) {
      const int32_t id = arena.probe[static_cast<size_t>(row)];
      if (id < 0) continue;
      uint32_t& cursor = arena.cursor[static_cast<size_t>(id)];
      if (cursor != kSkip) arena.scratch_rows[cursor++] = row;
    }
    for (const int32_t id : arena.touched) {
      arena.count[static_cast<size_t>(id)] = 0;
    }
  }

  // Exact-size result buffers: the one unavoidable allocation (the Pli owns
  // its memory) — a single sequential copy out of the arena.
  std::vector<RowId> rows(arena.scratch_rows.begin(),
                          arena.scratch_rows.begin() + out_position);
  std::vector<uint32_t> offsets(arena.scratch_offsets.begin(),
                                arena.scratch_offsets.end());
  return Pli(std::move(rows), std::move(offsets), num_rows_);
}

bool Pli::Refines(const Column& column) const {
  const int64_t num_clusters = NumClusters();
  const int32_t* codes = column.codes.data();
  for (int64_t i = 0; i < num_clusters; ++i) {
    const size_t begin = offsets_[static_cast<size_t>(i)];
    const size_t end = offsets_[static_cast<size_t>(i) + 1];
    const int32_t expected = codes[static_cast<size_t>(rows_[begin])];
    if (!simd::AllEqualGather(codes, rows_.data() + begin + 1,
                              end - begin - 1, expected)) {
      return false;
    }
  }
  return true;
}

void Pli::RefinesAll(std::span<const Column* const> columns,
                     std::vector<uint8_t>* valid) const {
  const size_t k = columns.size();
  valid->assign(k, 1);
  if (k == 0 || rows_.empty()) return;
  const size_t num_clusters = static_cast<size_t>(NumClusters());
  // The streaming scan pays one probe-table fill plus an expected-code
  // matrix of num_clusters * k entries. For a single candidate — or a
  // matrix too large to be worth materializing — the per-cluster walk wins.
  if (k == 1 || num_clusters * k > (1u << 22)) {
    for (size_t j = 0; j < k; ++j) {
      (*valid)[j] = Refines(*columns[j]) ? 1 : 0;
    }
    return;
  }

  Arena& arena = t_arena;
  arena.expected.assign(num_clusters * k, -1);
  size_t alive = k;
  FillProbeTable(&arena.probe);
  for (RowId row = 0; row < num_rows_; ++row) {
    const int32_t id = arena.probe[static_cast<size_t>(row)];
    if (id < 0) continue;
    int32_t* expected = arena.expected.data() + static_cast<size_t>(id) * k;
    for (size_t j = 0; j < k; ++j) {
      if (!(*valid)[j]) continue;
      const int32_t code =
          columns[j]->codes[static_cast<size_t>(row)];
      if (expected[j] < 0) {
        expected[j] = code;
      } else if (expected[j] != code) {
        (*valid)[j] = 0;
        if (--alive == 0) return;
      }
    }
  }
}

void Pli::FillProbeTable(std::vector<int32_t>* probe) const {
  const size_t n = static_cast<size_t>(num_rows_);
  if (probe->size() != n) probe->resize(n);
  simd::FillI32(probe->data(), n, -1);
  const int64_t num_clusters = NumClusters();
  for (int64_t i = 0; i < num_clusters; ++i) {
    const size_t begin = offsets_[static_cast<size_t>(i)];
    const size_t end = offsets_[static_cast<size_t>(i) + 1];
    for (size_t j = begin; j < end; ++j) {
      (*probe)[static_cast<size_t>(rows_[j])] = static_cast<int32_t>(i);
    }
  }
}

namespace {

// Serialized layout: a 3-field header followed by the two arrays verbatim.
// Counts are element counts, not bytes.
struct SerializedPliHeader {
  uint64_t rows_count;
  uint64_t offsets_count;
  uint64_t num_rows;
};

template <typename T>
char* AppendArray(char* out, const std::vector<T>& values) {
  const size_t bytes = values.size() * sizeof(T);
  if (bytes > 0) std::memcpy(out, values.data(), bytes);
  return out + bytes;
}

// True if a row id occurs twice in `rows` (all within [0, num_rows)). A
// bitmap over the row ids costs 1/32 of the probe table any use of the PLI
// allocates; when the header claims over 64 rows per listed row, a sorted
// copy keeps the work bounded by the payload instead of by the claim.
bool HasRepeatedRow(const std::vector<RowId>& rows, RowId num_rows) {
  if (static_cast<uint64_t>(num_rows) > uint64_t{64} * rows.size()) {
    std::vector<RowId> sorted = rows;
    std::sort(sorted.begin(), sorted.end());
    return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
  }
  std::vector<uint64_t> seen((static_cast<size_t>(num_rows) + 63) / 64);
  for (const RowId row : rows) {
    uint64_t& word = seen[static_cast<size_t>(row) >> 6];
    const uint64_t bit = uint64_t{1} << (row & 63);
    if (word & bit) return true;
    word |= bit;
  }
  return false;
}

template <typename T>
const char* ConsumeArray(const char* in, uint64_t count, std::vector<T>* out) {
  out->resize(static_cast<size_t>(count));
  const size_t bytes = static_cast<size_t>(count) * sizeof(T);
  if (bytes > 0) std::memcpy(out->data(), in, bytes);
  return in + bytes;
}

}  // namespace

size_t Pli::SerializedBytes() const {
  return sizeof(SerializedPliHeader) + rows_.size() * sizeof(RowId) +
         offsets_.size() * sizeof(uint32_t);
}

void Pli::SerializeTo(char* out) const {
  SerializedPliHeader header;
  header.rows_count = rows_.size();
  header.offsets_count = offsets_.size();
  header.num_rows = static_cast<uint64_t>(num_rows_);
  std::memcpy(out, &header, sizeof(header));
  out += sizeof(header);
  out = AppendArray(out, rows_);
  AppendArray(out, offsets_);
}

Result<Pli> Pli::Deserialize(const char* data, size_t bytes) {
  if (bytes < sizeof(SerializedPliHeader)) {
    return Status::ParseError("pli: serialized buffer shorter than header");
  }
  SerializedPliHeader header;
  std::memcpy(&header, data, sizeof(header));
  // Both arrays hold 4-byte elements; bounding each count by the payload
  // first keeps the size arithmetic below from overflowing.
  static_assert(sizeof(RowId) == sizeof(uint32_t));
  const uint64_t payload_elements =
      (bytes - sizeof(header)) / sizeof(uint32_t);
  if (header.rows_count > payload_elements ||
      header.offsets_count > payload_elements ||
      sizeof(header) + (header.rows_count + header.offsets_count) *
                           sizeof(uint32_t) != bytes) {
    return Status::ParseError("pli: serialized buffer size mismatch");
  }
  if (header.offsets_count == 0) {
    return Status::ParseError("pli: serialized form missing offsets");
  }
  if (header.num_rows >
          static_cast<uint64_t>(std::numeric_limits<RowId>::max()) ||
      header.rows_count > header.num_rows) {
    return Status::ParseError("pli: row count out of range");
  }
  std::vector<RowId> rows;
  std::vector<uint32_t> offsets;
  const char* in = data + sizeof(header);
  in = ConsumeArray(in, header.rows_count, &rows);
  ConsumeArray(in, header.offsets_count, &offsets);
  // Every cluster holds at least two rows, so the offsets climb from 0 by
  // at least 2 per step and end at the row count.
  if (offsets.front() != 0 || offsets.back() != rows.size()) {
    return Status::ParseError("pli: inconsistent cluster offsets");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1] || offsets[i] - offsets[i - 1] < 2) {
      return Status::ParseError("pli: cluster with fewer than two rows");
    }
  }
  const RowId num_rows = static_cast<RowId>(header.num_rows);
  for (const RowId row : rows) {
    if (row < 0 || row >= num_rows) {
      return Status::ParseError("pli: row id out of range");
    }
  }
  // A row belongs to at most one cluster. A repeat would make the probe
  // table (last cluster wins) and the cluster walks disagree, so Refines
  // and RefinesAll could answer differently on the same PLI.
  if (HasRepeatedRow(rows, num_rows)) {
    return Status::ParseError("pli: row id in more than one cluster");
  }
  return Pli(std::move(rows), std::move(offsets), num_rows);
}

}  // namespace muds
