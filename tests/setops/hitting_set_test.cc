#include "setops/hitting_set.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace muds {
namespace {

ColumnSet Set(std::vector<int> indices) {
  return ColumnSet::FromIndices(indices);
}

bool Hits(const ColumnSet& candidate, const std::vector<ColumnSet>& family) {
  for (const ColumnSet& member : family) {
    if (!candidate.Intersects(member)) return false;
  }
  return true;
}

TEST(HittingSetTest, EmptyFamilyHasEmptyHittingSet) {
  const auto result = MinimalHittingSets({}, 4);
  EXPECT_EQ(result, (std::vector<ColumnSet>{ColumnSet()}));
}

TEST(HittingSetTest, FamilyWithEmptyMemberHasNoHittingSet) {
  EXPECT_TRUE(MinimalHittingSets({Set({1}), ColumnSet()}, 4).empty());
}

TEST(HittingSetTest, SingleMember) {
  auto result = MinimalHittingSets({Set({0, 2})}, 4);
  std::sort(result.begin(), result.end());
  std::vector<ColumnSet> expected = {Set({0}), Set({2})};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(result, expected);
}

TEST(HittingSetTest, ClassicExample) {
  // Family {AB, BC, AC}: minimal hitting sets are all pairs.
  auto result = MinimalHittingSets({Set({0, 1}), Set({1, 2}), Set({0, 2})}, 3);
  std::vector<ColumnSet> expected = {Set({0, 1}), Set({0, 2}), Set({1, 2})};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(result, expected);
}

TEST(HittingSetTest, SharedElementDominates) {
  auto result = MinimalHittingSets({Set({0, 1}), Set({1, 2}), Set({1, 3})}, 4);
  // {1} hits everything; other combinations exist but must exclude 1-free
  // non-minimal sets.
  ASSERT_FALSE(result.empty());
  EXPECT_NE(std::find(result.begin(), result.end(), Set({1})), result.end());
  for (const ColumnSet& h : result) {
    if (h != Set({1})) {
      EXPECT_FALSE(h.Contains(1));
    }
  }
}

TEST(HittingSetTest, DuplicatedMembersAreIgnored) {
  auto once = MinimalHittingSets({Set({0, 1})}, 2);
  auto twice = MinimalHittingSets({Set({0, 1}), Set({0, 1})}, 2);
  EXPECT_EQ(once, twice);
}

// Property test: every result hits the family, is minimal, and every true
// minimal hitting set is reported (verified against brute-force
// enumeration over a small universe).
TEST(HittingSetTest, MatchesBruteForceOnRandomFamilies) {
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const int universe = 1 + static_cast<int>(rng.NextBelow(7));
    const int members = static_cast<int>(rng.NextBelow(6));
    std::vector<ColumnSet> family;
    for (int i = 0; i < members; ++i) {
      ColumnSet s;
      const int size = 1 + static_cast<int>(rng.NextBelow(
                               static_cast<uint64_t>(universe)));
      for (int j = 0; j < size; ++j) {
        s.Add(static_cast<int>(rng.NextBelow(
            static_cast<uint64_t>(universe))));
      }
      family.push_back(s);
    }

    // Brute force: all subsets of the universe that hit the family, kept
    // only if no proper subset also hits it.
    std::vector<ColumnSet> expected;
    for (uint64_t mask = 0; mask < (uint64_t{1} << universe); ++mask) {
      ColumnSet candidate;
      for (int b = 0; b < universe; ++b) {
        if ((mask >> b) & 1) candidate.Add(b);
      }
      if (!Hits(candidate, family)) continue;
      bool minimal = true;
      for (int b = candidate.First(); minimal && b >= 0;
           b = candidate.NextAtLeast(b + 1)) {
        if (Hits(candidate.Without(b), family)) minimal = false;
      }
      if (minimal) expected.push_back(candidate);
    }
    std::sort(expected.begin(), expected.end());

    auto got = MinimalHittingSets(family, universe);
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace muds
