// Equivalence of the native SIMD kernels and the runtime scalar kill
// switch: PLIs built and refined at the native level must agree with the
// scalar oracle on every observable — partitions, Refines/RefinesAll
// answers, and the summary counts — including on adversarial shapes: no
// clusters at all, one all-equal cluster, NULL-heavy columns, and cluster
// domains from 1 to 257.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd.h"
#include "data/relation.h"
#include "pli/position_list_index.h"
#include "test_util.h"

namespace muds {
namespace {

class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) : on_(on) {
    if (on_) simd::ForceScalar(true);
  }
  ~ScopedForceScalar() {
    if (on_) simd::ForceScalar(false);
  }

 private:
  bool on_;
};

// Canonical view of a stripped partition: clusters as sorted row lists,
// ordered by smallest row. Intersecting the same sets in a different order
// may emit the clusters in a different order; the partition itself must be
// identical.
std::vector<std::vector<RowId>> CanonicalPartition(const Pli& pli) {
  std::vector<std::vector<RowId>> clusters;
  for (int64_t i = 0; i < pli.NumClusters(); ++i) {
    const auto span = pli.cluster(i);
    std::vector<RowId> rows(span.begin(), span.end());
    std::sort(rows.begin(), rows.end());
    clusters.push_back(std::move(rows));
  }
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

// A single-column relation whose column cycles through `card` values —
// every value repeats when rows > card, so NumClusters() == card.
Relation CyclicRelation(int64_t rows, int64_t card) {
  std::vector<std::vector<std::string>> data;
  for (int64_t r = 0; r < rows; ++r) {
    data.push_back({"v" + std::to_string(r % card)});
  }
  return Relation::FromRows({"A"}, data, "cyclic");
}

// Column determined by relation column 0 (code mod `card`): every
// cluster-consistent candidate, so Refines must answer true.
Column DeterminedColumn(const Relation& r, int64_t card) {
  Column out;
  for (int64_t v = 0; v < card; ++v) {
    out.dictionary.push_back("d" + std::to_string(v));
  }
  for (RowId row = 0; row < r.NumRows(); ++row) {
    out.codes.push_back(r.Code(row, 0) % static_cast<int32_t>(card));
  }
  return out;
}

// SIMD levels under test: native and the scalar fallback.
const bool kScalarVariants[] = {false, true};

std::string VariantName(bool scalar) { return scalar ? "scalar" : "native"; }

// Both SIMD levels must agree with the scalar oracle on the partition,
// the Refines answer for each candidate, and the batched RefinesAll.
void ExpectAllVariantsAgree(const Relation& r,
                            const std::vector<Column>& candidates,
                            const std::string& tag) {
  const Pli oracle = [&] {
    ScopedForceScalar guard(true);
    return Pli::FromColumn(r.GetColumn(0), r.NumRows());
  }();
  const auto oracle_partition = CanonicalPartition(oracle);
  std::vector<uint8_t> oracle_valid;
  std::vector<const Column*> pointers;
  for (const Column& c : candidates) pointers.push_back(&c);
  {
    ScopedForceScalar guard(true);
    oracle.RefinesAll(pointers, &oracle_valid);
  }

  for (const bool v : kScalarVariants) {
    ScopedForceScalar guard(v);
    const Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows());
    EXPECT_EQ(pli.NumClusters(), oracle.NumClusters())
        << tag << " " << VariantName(v);
    EXPECT_EQ(pli.NumNonSingletonRows(), oracle.NumNonSingletonRows())
        << tag << " " << VariantName(v);
    EXPECT_EQ(pli.DistinctCount(), oracle.DistinctCount())
        << tag << " " << VariantName(v);
    EXPECT_EQ(CanonicalPartition(pli), oracle_partition)
        << tag << " " << VariantName(v);
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(pli.Refines(candidates[i]), oracle_valid[i] != 0)
          << tag << " " << VariantName(v) << " candidate " << i;
    }
    std::vector<uint8_t> valid;
    pli.RefinesAll(pointers, &valid);
    EXPECT_EQ(valid, oracle_valid) << tag << " " << VariantName(v);
  }
}

TEST(PliSimdEquivalenceTest, DomainsOneTo257) {
  // From a single cluster up to 257, around the powers of two.
  for (const int64_t card : {int64_t{1}, int64_t{2}, int64_t{63},
                             int64_t{64}, int64_t{65}, int64_t{255},
                             int64_t{256}, int64_t{257}}) {
    Relation r = CyclicRelation(2000, card);
    std::vector<Column> candidates;
    candidates.push_back(DeterminedColumn(r, std::min<int64_t>(card, 7)));
    candidates.push_back(DeterminedColumn(r, std::min<int64_t>(card, 64)));
    // A violating candidate: cycles at a different period, so some cluster
    // sees two codes (except when card divides the period).
    Column violating;
    violating.dictionary = {"x", "y", "z"};
    for (RowId row = 0; row < r.NumRows(); ++row) {
      violating.codes.push_back(row % 3);
    }
    candidates.push_back(std::move(violating));
    ExpectAllVariantsAgree(r, candidates,
                           "card=" + std::to_string(card));
  }
}

TEST(PliSimdEquivalenceTest, AllDistinctHasNoClusters) {
  std::vector<std::vector<std::string>> data;
  for (int64_t i = 0; i < 500; ++i) {
    data.push_back({"u" + std::to_string(i)});
  }
  Relation r = Relation::FromRows({"A"}, data, "distinct");
  for (const bool v : kScalarVariants) {
    ScopedForceScalar guard(v);
    const Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows());
    EXPECT_EQ(pli.NumClusters(), 0) << VariantName(v);
    EXPECT_TRUE(pli.IsUnique()) << VariantName(v);
  }
  ExpectAllVariantsAgree(r, {DeterminedColumn(r, 7)}, "all-distinct");
}

TEST(PliSimdEquivalenceTest, AllEqualAndNullHeavy) {
  std::vector<std::vector<std::string>> equal_rows(
      1000, std::vector<std::string>{"k"});
  Relation all_equal = Relation::FromRows({"A"}, equal_rows, "equal");
  ExpectAllVariantsAgree(all_equal, {DeterminedColumn(all_equal, 1)},
                         "all-equal");

  // NULL-heavy: most values empty, a few real ones.
  std::vector<std::vector<std::string>> null_rows;
  for (int64_t i = 0; i < 1200; ++i) {
    null_rows.push_back({i % 5 == 0 ? "v" + std::to_string(i % 11) : ""});
  }
  Relation null_heavy = Relation::FromRows({"A"}, null_rows, "nulls");
  ExpectAllVariantsAgree(null_heavy, {DeterminedColumn(null_heavy, 3)},
                         "null-heavy");
}

TEST(PliSimdEquivalenceTest, IntersectAgreesWithScalar) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Relation r = RandomRelation(seed, 3, 400, 2 + static_cast<int>(seed));
    const Pli oracle = [&] {
      ScopedForceScalar guard(true);
      return Pli::FromColumn(r.GetColumn(0), r.NumRows())
          .Intersect(Pli::FromColumn(r.GetColumn(1), r.NumRows()));
    }();
    for (const bool v : kScalarVariants) {
      ScopedForceScalar guard(v);
      const Pli a = Pli::FromColumn(r.GetColumn(0), r.NumRows());
      const Pli b = Pli::FromColumn(r.GetColumn(1), r.NumRows());
      const Pli ab = a.Intersect(b);
      // One kernel at every SIMD level: the layout itself is identical.
      EXPECT_TRUE(std::ranges::equal(ab.rows(), oracle.rows()))
          << "seed " << seed << " " << VariantName(v);
      EXPECT_TRUE(std::ranges::equal(ab.offsets(), oracle.offsets()))
          << "seed " << seed << " " << VariantName(v);
      // Intersection is associative and commutative on partitions.
      const Pli c = Pli::FromColumn(r.GetColumn(2), r.NumRows());
      const Pli abc = ab.Intersect(c);
      const Pli cab = c.Intersect(a).Intersect(b);
      EXPECT_EQ(CanonicalPartition(abc), CanonicalPartition(cab))
          << "seed " << seed << " " << VariantName(v);
    }
  }
}

TEST(PliSimdEquivalenceTest, ForEmptySet) {
  for (const bool v : kScalarVariants) {
    ScopedForceScalar guard(v);
    const Pli pli = Pli::ForEmptySet(6);
    EXPECT_EQ(pli.NumClusters(), 1) << VariantName(v);
    EXPECT_EQ(pli.NumNonSingletonRows(), 6) << VariantName(v);
    EXPECT_EQ(pli.DistinctCount(), 1) << VariantName(v);
  }
}

}  // namespace
}  // namespace muds
