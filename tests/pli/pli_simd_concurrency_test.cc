// Concurrency of the SIMD PLI kernels: Refines/RefinesAll/Intersect
// are const and scratch through thread-local arenas, so any number of
// threads may hammer the same shared PLIs; the runtime SIMD kill switch is
// an atomic that may flip mid-flight without affecting correctness (it only
// selects between kernels that compute the same answer).

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd.h"
#include "data/relation.h"
#include "pli/position_list_index.h"
#include "test_util.h"

namespace muds {
namespace {

TEST(PliSimdConcurrencyTest, SharedPlisUnderConcurrentKernels) {
  Relation r = RandomRelation(/*seed=*/11, 4, 600, 5);
  const Pli pli = Pli::FromColumn(r.GetColumn(0), r.NumRows());
  const Pli other = Pli::FromColumn(r.GetColumn(1), r.NumRows());
  const Column& candidate = r.GetColumn(2);
  std::vector<const Column*> batch = {&r.GetColumn(2), &r.GetColumn(3)};

  const bool expected_refines = pli.Refines(candidate);
  std::vector<uint8_t> expected_valid;
  pli.RefinesAll(batch, &expected_valid);
  const int64_t expected_clusters = pli.Intersect(other).NumClusters();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 50; ++iter) {
        const Pli& lhs = (iter + t) % 2 == 0 ? pli : other;
        const Pli& rhs = &lhs == &pli ? other : pli;
        if (pli.Refines(candidate) != expected_refines) ++failures;
        std::vector<uint8_t> valid;
        pli.RefinesAll(batch, &valid);
        if (valid != expected_valid) ++failures;
        if (lhs.Intersect(rhs).NumClusters() != expected_clusters) {
          ++failures;
        }
      }
    });
  }
  // One more thread flips the kill switch while the workers run.
  threads.emplace_back([&] {
    for (int i = 0; i < 200; ++i) {
      simd::ForceScalar(i % 2 == 0);
      std::this_thread::yield();
    }
    simd::ForceScalar(false);
  });
  for (std::thread& thread : threads) thread.join();
  simd::ForceScalar(false);
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace muds
