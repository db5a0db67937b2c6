// Randomized operation-sequence tests for SetTrie: every query is compared
// against a naive reference after every mutation. This suite exists because
// of a real bug: FindSupersetOf crashed on an empty trie (the root is the
// only childless non-terminal node).

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "setops/set_trie.h"

namespace muds {
namespace {

ColumnSet RandomSet(Rng* rng, int universe, int max_size) {
  ColumnSet s;
  const int size = static_cast<int>(
      rng->NextBelow(static_cast<uint64_t>(max_size + 1)));
  for (int j = 0; j < size; ++j) {
    s.Add(static_cast<int>(rng->NextBelow(
        static_cast<uint64_t>(universe))));
  }
  return s;
}

// Prefix-tree order: lexicographic over the ascending column sequences, a
// prefix before its extensions — the order std::vector<int> compares in.
bool PrefixTreeLess(const ColumnSet& a, const ColumnSet& b) {
  return a.ToIndices() < b.ToIndices();
}

TEST(SetTrieFuzzTest, EmptyTrieQueriesAreSafe) {
  SetTrie trie;
  ColumnSet out;
  EXPECT_FALSE(trie.FindSupersetOf(ColumnSet(), &out));
  EXPECT_FALSE(trie.FindSupersetOf(ColumnSet::Single(3), &out));
  EXPECT_FALSE(trie.ContainsSubsetOf(ColumnSet::FirstN(8)));
  EXPECT_FALSE(trie.ContainsSupersetOf(ColumnSet()));
  EXPECT_TRUE(trie.CollectAll().empty());
  // Regression: erase on an empty trie followed by a superset query used
  // to crash.
  trie.Erase(ColumnSet::FromIndices({0, 2, 3}));
  EXPECT_FALSE(trie.FindSupersetOf(ColumnSet(), &out));
}

class SetTrieFuzzCase : public ::testing::TestWithParam<int> {};

TEST_P(SetTrieFuzzCase, OperationsMatchNaiveReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const int universe = 4 + GetParam() % 8;
  SetTrie trie;
  std::set<ColumnSet> reference;

  for (int op = 0; op < 120; ++op) {
    const ColumnSet s = RandomSet(&rng, universe, 5);
    if (rng.NextBool(0.6)) {
      EXPECT_EQ(trie.Insert(s), reference.insert(s).second);
    } else {
      EXPECT_EQ(trie.Erase(s), reference.erase(s) > 0);
    }
    ASSERT_EQ(trie.Size(), reference.size());

    // Cross-check all four query kinds on a random probe.
    const ColumnSet q = RandomSet(&rng, universe, universe);
    bool want_subset = false;
    bool want_superset = false;
    for (const ColumnSet& r : reference) {
      want_subset |= r.IsSubsetOf(q);
      want_superset |= q.IsSubsetOf(r);
    }
    EXPECT_EQ(trie.ContainsSubsetOf(q), want_subset);
    EXPECT_EQ(trie.ContainsSupersetOf(q), want_superset);
    EXPECT_EQ(trie.Contains(q), reference.count(q) == 1);

    // The witness is the least stored superset in prefix-tree order, the
    // one a depth-first walk of the §5.4 prefix tree meets first.
    const ColumnSet* want_witness = nullptr;
    for (const ColumnSet& r : reference) {
      if (q.IsSubsetOf(r) &&
          (want_witness == nullptr || PrefixTreeLess(r, *want_witness))) {
        want_witness = &r;
      }
    }
    ColumnSet witness;
    const bool got = trie.FindSupersetOf(q, &witness);
    EXPECT_EQ(got, want_superset);
    if (got && want_witness != nullptr) {
      EXPECT_EQ(witness, *want_witness)
          << "witness " << witness.ToString() << " is not the least superset";
    }

    // Batched subset query over distinct extras, some of them inside q.
    std::vector<int> extras;
    for (int c = 0; c < universe; ++c) {
      if (rng.NextBool(0.5)) extras.push_back(c);
    }
    std::vector<uint8_t> each;
    trie.ContainsSubsetOfEach(q, extras, &each);
    ASSERT_EQ(each.size(), extras.size());
    for (size_t i = 0; i < extras.size(); ++i) {
      bool want = false;
      for (const ColumnSet& r : reference) {
        want |= r.IsSubsetOf(q.With(extras[i]));
      }
      EXPECT_EQ(each[i] != 0, want) << "extra " << extras[i];
    }

    // The evidence-store probes.
    const int required =
        static_cast<int>(rng.NextBelow(static_cast<uint64_t>(universe)));
    bool want_with = false;
    ColumnSet want_union;
    for (const ColumnSet& r : reference) {
      if (!r.IsSubsetOf(q)) continue;
      want_with |= r.Contains(required);
      want_union = want_union.Union(r);
    }
    EXPECT_EQ(trie.ContainsSubsetOfWith(q, required), want_with);
    EXPECT_EQ(trie.UnionOfSubsetsOf(q), want_union);
  }

  // Final full-content check, in prefix-tree order.
  std::vector<ColumnSet> want(reference.begin(), reference.end());
  std::sort(want.begin(), want.end(), PrefixTreeLess);
  EXPECT_EQ(trie.CollectAll(), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetTrieFuzzCase, ::testing::Range(1, 31));

TEST(SetTrieFuzzTest, DenseEraseUntilEmpty) {
  // Insert all subsets of a small universe, erase them in a shuffled
  // order, and verify the trie stays consistent throughout.
  const int universe = 5;
  SetTrie trie;
  std::vector<ColumnSet> sets;
  for (uint64_t mask = 0; mask < (1u << universe); ++mask) {
    ColumnSet s;
    for (int b = 0; b < universe; ++b) {
      if ((mask >> b) & 1) s.Add(b);
    }
    sets.push_back(s);
    trie.Insert(s);
  }
  EXPECT_EQ(trie.Size(), sets.size());

  Rng rng(4242);
  for (size_t i = sets.size(); i > 1; --i) {
    std::swap(sets[i - 1], sets[rng.NextBelow(i)]);
  }
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_TRUE(trie.Erase(sets[i]));
    EXPECT_FALSE(trie.Contains(sets[i]));
    EXPECT_EQ(trie.Size(), sets.size() - i - 1);
    ColumnSet out;
    // Queries stay safe mid-erasure.
    trie.FindSupersetOf(ColumnSet(), &out);
    trie.ContainsSubsetOf(ColumnSet::FirstN(universe));
  }
  EXPECT_TRUE(trie.IsEmpty());
}

}  // namespace
}  // namespace muds
