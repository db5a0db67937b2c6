#ifndef MUDS_PLI_POSITION_LIST_INDEX_H_
#define MUDS_PLI_POSITION_LIST_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "data/relation.h"

namespace muds {

/// Position list index (PLI), also called a stripped partition (§2.2).
///
/// A PLI for a column combination X lists, per distinct value of the
/// projection on X, the row ids sharing that value — keeping only clusters
/// of size >= 2 ("stripped"), because singleton clusters can never witness a
/// duplicate (UCC check) or an FD violation (refinement check).
///
/// This is the data structure shared between the UCC and FD tasks in the
/// holistic algorithms: it is built once per column while the input is read
/// and then only ever intersected.
///
/// Storage is a flat CSR layout: one contiguous row-id array plus an offset
/// array with one entry per cluster boundary (offsets()[i] .. offsets()[i+1]
/// delimit cluster i). Compared to the earlier vector-of-vectors layout this
/// removes one heap allocation and one pointer chase per cluster — §6.4
/// names the PLI intersect as the dominant profiling cost, and on the short,
/// many-cluster relations of the lattice walks that cost was allocator-bound.
/// All construction paths (FromColumn, Intersect) are allocation-free
/// kernels over a reusable thread-local arena; the only allocations are the
/// exact-size buffers of the returned PLI itself.
class Pli {
 public:
  /// Materialized cluster type, kept for test oracles and builders that
  /// assemble clusters incrementally; the Pli itself stores CSR.
  using Cluster = std::vector<RowId>;

  /// Builds the PLI of a single column (counting sort over the dictionary
  /// codes; no per-cluster allocations).
  static Pli FromColumn(const Column& column, RowId num_rows);

  /// PLI of the empty column combination: one cluster holding every row
  /// (empty if the relation has fewer than two rows).
  static Pli ForEmptySet(RowId num_rows);

  /// PLI of `column` after a Relation::AppendBatch, built from `old` — the
  /// same column's PLI before the append — plus the per-column delta of
  /// that append. Only the appended suffix of the code array is scanned:
  /// old clusters are copied through (suffix rows joining at the tail, so
  /// rows stay ascending), pre-append singletons recorded in the delta
  /// become clusters without a rescan, and brand-new codes group among
  /// themselves. `old` must hold its clusters in code order, as FromColumn
  /// and MergeAppend produce them (Intersect results do not qualify).
  /// The output is bit-identical to FromColumn over the grown column.
  static Pli MergeAppend(const Pli& old, const Column& column,
                         const ColumnAppendDelta& delta, RowId num_rows);

  /// Flattens materialized clusters into CSR. Every cluster must have
  /// size >= 2 (checked in debug builds). Compatibility/test path — the hot
  /// construction paths never materialize nested clusters.
  Pli(const std::vector<Cluster>& clusters, RowId num_rows);

  /// Intersects two PLIs: the PLI of X ∪ Y from the PLIs of X and Y. The
  /// operand with more clustered rows fills a probe table; each cluster of
  /// the other is bucket-compacted through it entirely in a thread-local
  /// arena, and the result is written into its final flat buffers — no
  /// per-cluster allocations. Rows stay ascending within each cluster.
  Pli Intersect(const Pli& other) const;

  /// True if X functionally determines the column with the given codes
  /// (Lemma 1 via direct refinement: every cluster of X is constant in the
  /// column). Cheaper than a full Intersect when only validity is needed:
  /// a per-cluster scan, SIMD-gathered where available.
  bool Refines(const Column& column) const;

  /// Batched refinement: validates every candidate column in `columns` at
  /// once and writes 1/0 per candidate into `valid` (resized to
  /// `columns.size()`). Fills the probe table once, then streams the rows
  /// sequentially, so the per-candidate cost is one sequential read of the
  /// candidate's code array instead of one random-access cluster walk each —
  /// the lattice check loops validate many right-hand sides against the same
  /// left-hand side PLI (§5.1/§5.2). Candidates drop out of the scan as
  /// soon as they are violated; the scan stops when none survive.
  void RefinesAll(std::span<const Column* const> columns,
                  std::vector<uint8_t>* valid) const;

  /// True if the underlying column combination is a UCC: no duplicate
  /// projections, i.e. no (stripped) cluster remains.
  bool IsUnique() const { return rows_.empty(); }

  /// Number of stripped clusters.
  int64_t NumClusters() const {
    return static_cast<int64_t>(offsets_.size()) - 1;
  }

  /// Number of rows that appear in some cluster (i.e. have a duplicate).
  int64_t NumNonSingletonRows() const {
    return static_cast<int64_t>(rows_.size());
  }

  /// Number of distinct values of the projection — the cardinality |X|r that
  /// drives FUN's partition-refinement test (Lemma 1).
  int64_t DistinctCount() const {
    return static_cast<int64_t>(num_rows_) - NumNonSingletonRows() +
           NumClusters();
  }

  RowId NumRows() const { return num_rows_; }

  /// Cluster `i` as a view into the flat row array.
  std::span<const RowId> cluster(int64_t i) const {
    return {rows_.data() + offsets_[static_cast<size_t>(i)],
            rows_.data() + offsets_[static_cast<size_t>(i) + 1]};
  }

  /// All clustered rows, concatenated in cluster order.
  std::span<const RowId> rows() const { return rows_; }

  /// Cluster boundaries: cluster i spans offsets()[i] .. offsets()[i+1].
  /// Always has NumClusters() + 1 entries (a lone 0 for an empty PLI).
  std::span<const uint32_t> offsets() const { return offsets_; }

  /// Heap footprint of this PLI in bytes — what the byte-budgeted PliCache
  /// charges for a cached entry.
  size_t MemoryBytes() const {
    return rows_.capacity() * sizeof(RowId) +
           offsets_.capacity() * sizeof(uint32_t) + sizeof(Pli);
  }

  /// Fills `probe` (size num_rows) with the cluster id of each row, or -1
  /// for rows in singleton clusters. Exposed for bulk FD checks. Reuses the
  /// buffer in place when it is already the right size.
  void FillProbeTable(std::vector<int32_t>* probe) const;

  /// Exact size of the serialized form — the spill-tier wire format.
  size_t SerializedBytes() const;

  /// Writes exactly SerializedBytes() bytes to `out`. The format captures
  /// rows, offsets and the row count verbatim, so a reloaded PLI is
  /// identical to the original.
  void SerializeTo(char* out) const;

  /// Inverse of SerializeTo. Fails with ParseError on any buffer that does
  /// not describe a valid PLI: truncated or oversized, offsets not strictly
  /// ascending from 0 to the row count, a cluster of fewer than two rows,
  /// or a row id outside [0, num_rows).
  static Result<Pli> Deserialize(const char* data, size_t bytes);

 private:
  // Takes ownership of pre-sized CSR buffers (the kernel entry point).
  Pli(std::vector<RowId> rows, std::vector<uint32_t> offsets, RowId num_rows);

  std::vector<RowId> rows_;        // Clustered rows, concatenated.
  std::vector<uint32_t> offsets_;  // NumClusters() + 1 cluster boundaries.
  RowId num_rows_;
};

}  // namespace muds

#endif  // MUDS_PLI_POSITION_LIST_INDEX_H_
