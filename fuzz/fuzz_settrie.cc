// Model-based fuzzer for SetTrie.
//
// The input is an op stream over a 12-column universe: each 3-byte step
// encodes an operation and a column set. Every query result is compared
// with a naive vector-of-sets model, and the stored contents are compared
// after the run — so structural bugs (lost sets after an erase, wrong
// bucket bounds in a subset/superset scan) surface as asserts. The order
// contract is checked too: FindSupersetOf returns the least stored superset
// in prefix-tree order and CollectAll lists the sets in that order.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fuzz_util.h"
#include "setops/column_set.h"
#include "setops/set_trie.h"

namespace {

using namespace muds;

constexpr int kUniverse = 12;

ColumnSet DecodeSet(uint8_t low, uint8_t high) {
  ColumnSet set;
  const uint32_t bits =
      static_cast<uint32_t>(low) | (static_cast<uint32_t>(high) << 8);
  for (int c = 0; c < kUniverse; ++c) {
    if (bits & (1u << c)) set.Add(c);
  }
  return set;
}

std::vector<ColumnSet> Sorted(std::vector<ColumnSet> sets) {
  std::sort(sets.begin(), sets.end());
  return sets;
}

// Prefix-tree order: lexicographic over the ascending column sequences, a
// prefix before its extensions.
bool PrefixTreeLess(const ColumnSet& a, const ColumnSet& b) {
  return a.ToIndices() < b.ToIndices();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  SetTrie trie;
  std::vector<ColumnSet> model;

  const auto model_find = [&](const ColumnSet& set) {
    return std::find(model.begin(), model.end(), set);
  };

  for (size_t i = 0; i + 3 <= size; i += 3) {
    const uint8_t op = data[i] % 9;
    // The op byte's high part picks the column the probes of op 3 need.
    const int column = (data[i] / 9) % kUniverse;
    const ColumnSet set = DecodeSet(data[i + 1], data[i + 2]);
    switch (op) {
      case 0: {  // Insert
        const bool fresh = model_find(set) == model.end();
        if (fresh) model.push_back(set);
        FUZZ_ASSERT(trie.Insert(set) == fresh);
        break;
      }
      case 1: {  // Erase
        const auto it = model_find(set);
        const bool present = it != model.end();
        if (present) model.erase(it);
        FUZZ_ASSERT(trie.Erase(set) == present);
        break;
      }
      case 2:  // Contains
        FUZZ_ASSERT(trie.Contains(set) == (model_find(set) != model.end()));
        break;
      case 3: {  // ContainsSubsetOf and the batched subset probes
        const bool expected =
            std::any_of(model.begin(), model.end(), [&](const ColumnSet& s) {
              return s.IsSubsetOf(set);
            });
        FUZZ_ASSERT(trie.ContainsSubsetOf(set) == expected);

        bool expected_with = false;
        ColumnSet expected_union;
        for (const ColumnSet& s : model) {
          if (!s.IsSubsetOf(set)) continue;
          expected_with |= s.Contains(column);
          expected_union = expected_union.Union(s);
        }
        FUZZ_ASSERT(trie.ContainsSubsetOfWith(set, column) == expected_with);
        FUZZ_ASSERT(trie.UnionOfSubsetsOf(set) == expected_union);

        // Extras in rotated order from `column`; an even column also keeps
        // the extras already in `set` (they answer like `set` itself).
        std::vector<int> extras;
        for (int k = 0; k < kUniverse; ++k) {
          const int c = (column + k) % kUniverse;
          if (column % 2 == 0 || !set.Contains(c)) extras.push_back(c);
        }
        std::vector<uint8_t> each;
        trie.ContainsSubsetOfEach(set, extras, &each);
        FUZZ_ASSERT(each.size() == extras.size());
        for (size_t k = 0; k < extras.size(); ++k) {
          const ColumnSet extended = set.With(extras[k]);
          const bool want = std::any_of(
              model.begin(), model.end(),
              [&](const ColumnSet& s) { return s.IsSubsetOf(extended); });
          FUZZ_ASSERT((each[k] != 0) == want);
        }
        break;
      }
      case 4: {  // ContainsSupersetOf
        const bool expected =
            std::any_of(model.begin(), model.end(), [&](const ColumnSet& s) {
              return set.IsSubsetOf(s);
            });
        FUZZ_ASSERT(trie.ContainsSupersetOf(set) == expected);
        break;
      }
      case 5: {  // CollectSubsetsOf
        std::vector<ColumnSet> expected;
        for (const ColumnSet& s : model) {
          if (s.IsSubsetOf(set)) expected.push_back(s);
        }
        FUZZ_ASSERT(Sorted(trie.CollectSubsetsOf(set)) == Sorted(expected));
        break;
      }
      case 6: {  // CollectSupersetsOf
        std::vector<ColumnSet> expected;
        for (const ColumnSet& s : model) {
          if (set.IsSubsetOf(s)) expected.push_back(s);
        }
        FUZZ_ASSERT(Sorted(trie.CollectSupersetsOf(set)) == Sorted(expected));
        break;
      }
      case 7: {  // FindSupersetOf
        ColumnSet witness;
        const bool found = trie.FindSupersetOf(set, &witness);
        const bool expected =
            std::any_of(model.begin(), model.end(), [&](const ColumnSet& s) {
              return set.IsSubsetOf(s);
            });
        FUZZ_ASSERT(found == expected);
        if (found) {
          FUZZ_ASSERT(set.IsSubsetOf(witness));
          FUZZ_ASSERT(model_find(witness) != model.end());
          for (const ColumnSet& s : model) {
            FUZZ_ASSERT(!set.IsSubsetOf(s) || !PrefixTreeLess(s, witness));
          }
        }
        break;
      }
      case 8:  // Clear, rarely: only when the low set byte opts in.
        if (data[i + 1] == 0xff) {
          trie.Clear();
          model.clear();
        }
        break;
    }
    FUZZ_ASSERT(trie.Size() == model.size());
    FUZZ_ASSERT(trie.IsEmpty() == model.empty());
  }

  std::vector<ColumnSet> in_prefix_order = model;
  std::sort(in_prefix_order.begin(), in_prefix_order.end(), PrefixTreeLess);
  FUZZ_ASSERT(trie.CollectAll() == in_prefix_order);
  return 0;
}
