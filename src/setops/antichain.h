#ifndef MUDS_SETOPS_ANTICHAIN_H_
#define MUDS_SETOPS_ANTICHAIN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "setops/column_set.h"
#include "setops/set_trie.h"

namespace muds {

/// Maintains an antichain of minimal sets: inserting a set drops it if a
/// stored subset already dominates it and evicts any stored supersets.
/// Backed by a SetTrie, so every query and every insertion is one scan over
/// the cardinality buckets that can match.
///
/// DUCC keeps its minimal UCCs here; MUDS keeps minimal FD left-hand sides
/// per right-hand side here.
class MinimalSetCollection {
 public:
  /// Inserts `set` if no stored subset exists; evicts stored supersets in
  /// the same scan. Returns true if the set was inserted.
  bool Insert(const ColumnSet& set) { return trie_.InsertMinimal(set); }

  /// True if exactly `set` is stored.
  bool Contains(const ColumnSet& set) const { return trie_.Contains(set); }

  /// True if a stored set is a subset of (or equal to) `set` — i.e. `set`
  /// is "covered": it is one of the minimal sets or dominated by one.
  bool ContainsSubsetOf(const ColumnSet& set) const {
    return trie_.ContainsSubsetOf(set);
  }

  /// Batched coverage query: out[i] = ContainsSubsetOf(base ∪ {extras[i]})
  /// in one scan (the lattice walks' candidate expansion).
  void ContainsSubsetOfEach(const ColumnSet& base, std::span<const int> extras,
                            std::vector<uint8_t>* out) const {
    trie_.ContainsSubsetOfEach(base, extras, out);
  }

  /// True if a stored set is a superset of (or equal to) `set`.
  bool ContainsSupersetOf(const ColumnSet& set) const {
    return trie_.ContainsSupersetOf(set);
  }

  /// All stored sets, in prefix-tree order (see SetTrie).
  std::vector<ColumnSet> CollectAll() const { return trie_.CollectAll(); }

  size_t Size() const { return trie_.Size(); }
  bool IsEmpty() const { return trie_.IsEmpty(); }
  void Clear() { trie_.Clear(); }

 private:
  SetTrie trie_;
};

/// Dual of MinimalSetCollection: keeps maximal sets only. DUCC keeps its
/// maximal non-UCCs here; the per-right-hand-side FD walks keep maximal
/// non-determinant left-hand sides here.
class MaximalSetCollection {
 public:
  /// Inserts `set` if no stored superset exists; evicts stored subsets in
  /// the same scan. Returns true if the set was inserted.
  bool Insert(const ColumnSet& set) { return trie_.InsertMaximal(set); }

  bool Contains(const ColumnSet& set) const { return trie_.Contains(set); }

  /// True if a stored set is a superset of (or equal to) `set` — i.e. `set`
  /// is covered by the antichain.
  bool ContainsSupersetOf(const ColumnSet& set) const {
    return trie_.ContainsSupersetOf(set);
  }

  bool ContainsSubsetOf(const ColumnSet& set) const {
    return trie_.ContainsSubsetOf(set);
  }

  /// Finds the least stored superset of `set` in prefix-tree order (a
  /// witness that `set` is covered).
  bool FindSupersetOf(const ColumnSet& set, ColumnSet* out) const {
    return trie_.FindSupersetOf(set, out);
  }

  std::vector<ColumnSet> CollectAll() const { return trie_.CollectAll(); }

  size_t Size() const { return trie_.Size(); }
  bool IsEmpty() const { return trie_.IsEmpty(); }
  void Clear() { trie_.Clear(); }

 private:
  SetTrie trie_;
};

}  // namespace muds

#endif  // MUDS_SETOPS_ANTICHAIN_H_
