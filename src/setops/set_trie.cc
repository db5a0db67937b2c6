#include "setops/set_trie.h"

#include <algorithm>
#include <array>

#include "common/check.h"

namespace muds {

namespace {

// Prefix-tree order: lexicographic over the ascending column sequences, a
// prefix before its extensions. The sequences agree below the smallest
// column d in exactly one of the two sets; the set holding d comes first
// unless the other set has no column past d (and is then a prefix of it).
bool PrefixTreeLess(const ColumnSet& a, const ColumnSet& b) {
  const int only_a = a.Difference(b).First();
  const int only_b = b.Difference(a).First();
  if (only_a < 0 && only_b < 0) return false;
  if (only_b < 0 || (only_a >= 0 && only_a < only_b)) {
    return b.NextAtLeast(only_a + 1) >= 0;
  }
  return a.NextAtLeast(only_b + 1) < 0;
}

}  // namespace

size_t SetTrie::SubsetBuckets(int count) const {
  return std::min(buckets_.size(), static_cast<size_t>(count) + 1);
}

void SetTrie::Append(const ColumnSet& set) {
  const size_t count = static_cast<size_t>(set.Count());
  if (count >= buckets_.size()) buckets_.resize(count + 1);
  buckets_[count].push_back(set);
  ++size_;
}

bool SetTrie::Insert(const ColumnSet& set) {
  if (Contains(set)) return false;
  Append(set);
  return true;
}

bool SetTrie::InsertMinimal(const ColumnSet& set) {
  const size_t below = SubsetBuckets(set.Count());
  for (size_t k = 0; k < below; ++k) {
    for (const ColumnSet& stored : buckets_[k]) {
      if (stored.IsSubsetOf(set)) return false;
    }
  }
  // Equal sets were rejected above, so only larger buckets hold supersets.
  for (size_t k = below; k < buckets_.size(); ++k) {
    size_ -= std::erase_if(buckets_[k], [&set](const ColumnSet& stored) {
      return set.IsSubsetOf(stored);
    });
  }
  Append(set);
  return true;
}

bool SetTrie::InsertMaximal(const ColumnSet& set) {
  const size_t count = static_cast<size_t>(set.Count());
  for (size_t k = count; k < buckets_.size(); ++k) {
    for (const ColumnSet& stored : buckets_[k]) {
      if (set.IsSubsetOf(stored)) return false;
    }
  }
  // Equal sets were rejected above, so only smaller buckets hold subsets.
  for (size_t k = 0; k < std::min(count, buckets_.size()); ++k) {
    size_ -= std::erase_if(buckets_[k], [&set](const ColumnSet& stored) {
      return stored.IsSubsetOf(set);
    });
  }
  Append(set);
  return true;
}

bool SetTrie::Erase(const ColumnSet& set) {
  const size_t count = static_cast<size_t>(set.Count());
  if (count >= buckets_.size()) return false;
  const size_t erased = std::erase(buckets_[count], set);
  size_ -= erased;
  return erased > 0;
}

bool SetTrie::Contains(const ColumnSet& set) const {
  const size_t count = static_cast<size_t>(set.Count());
  if (count >= buckets_.size()) return false;
  const std::vector<ColumnSet>& bucket = buckets_[count];
  return std::find(bucket.begin(), bucket.end(), set) != bucket.end();
}

bool SetTrie::ContainsSubsetOf(const ColumnSet& set) const {
  const size_t end = SubsetBuckets(set.Count());
  for (size_t k = 0; k < end; ++k) {
    for (const ColumnSet& stored : buckets_[k]) {
      if (stored.IsSubsetOf(set)) return true;
    }
  }
  return false;
}

void SetTrie::ContainsSubsetOfEach(const ColumnSet& base,
                                   std::span<const int> extras,
                                   std::vector<uint8_t>* out) const {
  out->assign(extras.size(), 0);
  if (extras.empty()) return;
  // Maps a column index to its position in `extras`, or -1.
  std::array<int16_t, ColumnSet::kMaxColumns> slot;
  slot.fill(-1);
  for (size_t i = 0; i < extras.size(); ++i) {
    // Distinct-extras contract (duplicates would shadow each other).
    MUDS_DCHECK(slot[static_cast<size_t>(extras[i])] == -1);
    slot[static_cast<size_t>(extras[i])] = static_cast<int16_t>(i);
  }
  // Unanswered extras; the scan stops once it reaches zero.
  size_t remaining = extras.size();
  const size_t end = SubsetBuckets(base.Count() + 1);
  for (size_t k = 0; k < end; ++k) {
    for (const ColumnSet& stored : buckets_[k]) {
      const ColumnSet outside = stored.Difference(base);
      const int column = outside.First();
      if (column < 0) {
        // A stored subset of `base` alone: every extension is covered.
        std::fill(out->begin(), out->end(), uint8_t{1});
        return;
      }
      if (outside.NextAtLeast(column + 1) >= 0) continue;
      const int16_t i = slot[static_cast<size_t>(column)];
      if (i >= 0 && !(*out)[static_cast<size_t>(i)]) {
        (*out)[static_cast<size_t>(i)] = 1;
        if (--remaining == 0) return;
      }
    }
  }
}

bool SetTrie::ContainsSubsetOfWith(const ColumnSet& allowed,
                                   int required) const {
  if (!allowed.Contains(required)) return false;
  const size_t end = SubsetBuckets(allowed.Count());
  for (size_t k = 1; k < end; ++k) {
    for (const ColumnSet& stored : buckets_[k]) {
      if (stored.Contains(required) && stored.IsSubsetOf(allowed)) {
        return true;
      }
    }
  }
  return false;
}

ColumnSet SetTrie::UnionOfSubsetsOf(const ColumnSet& allowed) const {
  ColumnSet out;
  const size_t end = SubsetBuckets(allowed.Count());
  for (size_t k = 0; k < end; ++k) {
    for (const ColumnSet& stored : buckets_[k]) {
      if (stored.IsSubsetOf(allowed)) out = out.Union(stored);
    }
  }
  return out;
}

bool SetTrie::ContainsSupersetOf(const ColumnSet& set) const {
  for (size_t k = static_cast<size_t>(set.Count()); k < buckets_.size();
       ++k) {
    for (const ColumnSet& stored : buckets_[k]) {
      if (set.IsSubsetOf(stored)) return true;
    }
  }
  return false;
}

std::vector<ColumnSet> SetTrie::CollectSubsetsOf(const ColumnSet& set) const {
  std::vector<ColumnSet> out;
  const size_t end = SubsetBuckets(set.Count());
  for (size_t k = 0; k < end; ++k) {
    for (const ColumnSet& stored : buckets_[k]) {
      if (stored.IsSubsetOf(set)) out.push_back(stored);
    }
  }
  return out;
}

std::vector<ColumnSet> SetTrie::CollectSupersetsOf(
    const ColumnSet& set) const {
  std::vector<ColumnSet> out;
  for (size_t k = static_cast<size_t>(set.Count()); k < buckets_.size();
       ++k) {
    for (const ColumnSet& stored : buckets_[k]) {
      if (set.IsSubsetOf(stored)) out.push_back(stored);
    }
  }
  return out;
}

bool SetTrie::FindSupersetOf(const ColumnSet& set, ColumnSet* out) const {
  const ColumnSet* best = nullptr;
  for (size_t k = static_cast<size_t>(set.Count()); k < buckets_.size();
       ++k) {
    for (const ColumnSet& stored : buckets_[k]) {
      if (set.IsSubsetOf(stored) &&
          (best == nullptr || PrefixTreeLess(stored, *best))) {
        best = &stored;
      }
    }
  }
  if (best == nullptr) return false;
  *out = *best;
  return true;
}

std::vector<ColumnSet> SetTrie::CollectAll() const {
  std::vector<ColumnSet> out;
  out.reserve(size_);
  for (const std::vector<ColumnSet>& bucket : buckets_) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  std::sort(out.begin(), out.end(), PrefixTreeLess);
  return out;
}

void SetTrie::Clear() {
  buckets_.clear();
  size_ = 0;
}

}  // namespace muds
