#ifndef MUDS_SETOPS_SET_TRIE_H_
#define MUDS_SETOPS_SET_TRIE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "setops/column_set.h"

namespace muds {

/// The §5.4 index over column sets: the subset and superset queries that
/// dominate MUDS' FD validation — "is any stored minimal UCC a subset of
/// this left-hand side?" and the connector look-up's "which stored minimal
/// UCCs are supersets of this connector?" — plus the lattice walks' and the
/// evidence store's batched variants.
///
/// The paper stores the sets in a prefix tree. Here they are stored flat:
/// one contiguous array per cardinality, and every query is a linear
/// IsSubsetOf scan over the arrays that can hold a match — cardinalities
/// <= |S| for subset queries, >= |S| for superset queries. A ColumnSet is a
/// fixed 256-bit bitset, so one subset test is four and-not words; a tree
/// with one heap node per column spends more on pointer chasing and
/// allocation than its pruning saves at the collection sizes MUDS keeps.
///
/// The class keeps the prefix tree's name and its observable order: callers
/// (LatticeTraversal::FillHoles expands children from the witness) depend on
/// FindSupersetOf returning the least stored superset in prefix-tree order,
/// and CollectAll lists the sets in that order. Prefix-tree order is
/// lexicographic over ascending column sequences, a prefix before its
/// extensions. Within one cardinality the arrays keep no particular order,
/// so CollectSubsetsOf and CollectSupersetsOf return their matches in
/// unspecified order.
class SetTrie {
 public:
  /// Inserts `set`. Returns false if it was already present.
  bool Insert(const ColumnSet& set);

  /// Antichain insertion for a collection of minimal sets, in one scan:
  /// returns false if a stored set is a subset of (or equal to) `set`;
  /// otherwise erases every stored superset of `set`, inserts it and returns
  /// true.
  bool InsertMinimal(const ColumnSet& set);

  /// Dual of InsertMinimal for a collection of maximal sets: rejected if a
  /// stored set is a superset of (or equal to) `set`; otherwise every stored
  /// subset is erased.
  bool InsertMaximal(const ColumnSet& set);

  /// Removes `set`. Returns false if it was not present.
  bool Erase(const ColumnSet& set);

  /// True if exactly `set` is stored.
  bool Contains(const ColumnSet& set) const;

  /// True if some stored set is a subset of (or equal to) `set`.
  bool ContainsSubsetOf(const ColumnSet& set) const;

  /// Batched subset query: writes out[i] = ContainsSubsetOf(base ∪
  /// {extras[i]}) for every i, in one scan instead of extras.size()
  /// independent ones. The lattice walks expand a node by asking exactly
  /// this — "which single-column extensions are already known positive?".
  /// A stored set with no column outside `base` answers every extra; one
  /// with exactly one column outside `base` answers that extra. `extras`
  /// must be distinct and `out` is resized to extras.size(). Extras already
  /// in `base` behave like the identity extension (out[i] =
  /// ContainsSubsetOf(base)).
  void ContainsSubsetOfEach(const ColumnSet& base, std::span<const int> extras,
                            std::vector<uint8_t>* out) const;

  /// True if some stored set is a subset of `allowed` AND contains
  /// `required`. The evidence-store FD probe: with the stored sets being
  /// disagreement sets and `allowed` the complement of a left-hand side,
  /// this asks "does some recorded pair agree on the whole LHS while
  /// disagreeing on `required`?" in one scan.
  bool ContainsSubsetOfWith(const ColumnSet& allowed, int required) const;

  /// Union of all stored sets that are subsets of (or equal to) `allowed`.
  /// One scan answers the evidence store's batched probe: every column in
  /// the result is refutable as a right-hand side for the complement of
  /// `allowed`.
  ColumnSet UnionOfSubsetsOf(const ColumnSet& allowed) const;

  /// True if some stored set is a superset of (or equal to) `set`.
  bool ContainsSupersetOf(const ColumnSet& set) const;

  /// All stored sets that are subsets of (or equal to) `set`, in
  /// unspecified order.
  std::vector<ColumnSet> CollectSubsetsOf(const ColumnSet& set) const;

  /// All stored sets that are supersets of (or equal to) `set`, in
  /// unspecified order.
  std::vector<ColumnSet> CollectSupersetsOf(const ColumnSet& set) const;

  /// Writes the least stored superset of `set` in prefix-tree order into
  /// `out` and returns true, or returns false if none exists. Cheaper than
  /// CollectSupersetsOf when one witness suffices.
  bool FindSupersetOf(const ColumnSet& set, ColumnSet* out) const;

  /// All stored sets, in prefix-tree order.
  std::vector<ColumnSet> CollectAll() const;

  /// Number of stored sets.
  size_t Size() const { return size_; }

  bool IsEmpty() const { return size_ == 0; }

  /// Removes all stored sets.
  void Clear();

 private:
  // Number of buckets a subset query on a set of `count` columns scans:
  // cardinalities 0..count.
  size_t SubsetBuckets(int count) const;

  // Stores `set`, which must not be present yet.
  void Append(const ColumnSet& set);

  // buckets_[k] holds the stored sets with k columns.
  std::vector<std::vector<ColumnSet>> buckets_;
  size_t size_ = 0;
};

}  // namespace muds

#endif  // MUDS_SETOPS_SET_TRIE_H_
