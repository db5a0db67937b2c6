// Fuzzer for the PLI wire format (Pli::Deserialize), the input a spilled
// PliCache entry is reloaded from.
//
// The input bytes are handed to Deserialize verbatim. A rejected buffer is
// fine; an accepted one must be a PLI every kernel can run on: it
// re-serializes to the same bytes, and FillProbeTable, Intersect and
// RefinesAll stay in bounds (run under ASan) and keep the CSR invariants,
// at the native SIMD level and with the scalar kill switch. Refines and
// RefinesAll must agree on every probe column: they read the clusters
// through different paths, so a row listed in two clusters (which the
// parser rejects) would split them.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/simd.h"
#include "data/relation.h"
#include "fuzz_util.h"
#include "pli/position_list_index.h"

namespace {

using namespace muds;

// Kernel scratch grows with NumRows(), which an accepted header may set to
// any RowId; past this size only the wire-format checks run, so one input
// cannot claim gigabytes of probe table.
constexpr RowId kMaxKernelRows = RowId{1} << 20;

// True if `pli` re-serializes to a buffer Deserialize accepts, i.e. it
// satisfies every invariant the wire format checks.
bool SatisfiesWireInvariants(const Pli& pli) {
  std::vector<char> buffer(pli.SerializedBytes());
  pli.SerializeTo(buffer.data());
  return Pli::Deserialize(buffer.data(), buffer.size()).ok();
}

bool SameLayout(const Pli& a, const Pli& b) {
  return a.NumRows() == b.NumRows() &&
         std::ranges::equal(a.rows(), b.rows()) &&
         std::ranges::equal(a.offsets(), b.offsets());
}

// Column of `num_rows` rows with codes row % card.
Column CyclicColumn(RowId num_rows, int32_t card) {
  Column column;
  for (int32_t v = 0; v < card; ++v) {
    column.dictionary.push_back("v" + std::to_string(v));
  }
  column.codes.resize(static_cast<size_t>(num_rows));
  for (RowId row = 0; row < num_rows; ++row) {
    column.codes[static_cast<size_t>(row)] = row % card;
  }
  return column;
}

void RunKernels(const Pli& pli) {
  const RowId n = pli.NumRows();
  const int64_t clusters = pli.NumClusters();

  std::vector<int32_t> probe;
  pli.FillProbeTable(&probe);
  FUZZ_ASSERT(probe.size() == static_cast<size_t>(n));
  for (const int32_t id : probe) FUZZ_ASSERT(id >= -1 && id < clusters);
  for (const RowId row : pli.rows()) {
    FUZZ_ASSERT(probe[static_cast<size_t>(row)] >= 0);
  }

  // The empty-set PLI is the intersect identity.
  FUZZ_ASSERT(SameLayout(pli.Intersect(Pli::ForEmptySet(n)), pli));

  const Column constant = CyclicColumn(n, 1);
  const Column halves = CyclicColumn(n, 2);
  const Column thirds = CyclicColumn(n, 3);
  for (const Column* column : {&halves, &thirds}) {
    const Pli other = Pli::FromColumn(*column, n);
    const Pli both = pli.Intersect(other);
    FUZZ_ASSERT(SatisfiesWireInvariants(both));
    FUZZ_ASSERT(both.NumNonSingletonRows() <= pli.NumNonSingletonRows());
    FUZZ_ASSERT(SatisfiesWireInvariants(other.Intersect(pli)));
  }
  FUZZ_ASSERT(SatisfiesWireInvariants(pli.Intersect(pli)));

  // Every cluster is constant in a constant column.
  const std::vector<const Column*> candidates = {&constant, &halves,
                                                 &thirds};
  std::vector<uint8_t> valid;
  pli.RefinesAll(candidates, &valid);
  FUZZ_ASSERT(valid.size() == candidates.size());
  FUZZ_ASSERT(valid[0] == 1);
  FUZZ_ASSERT(pli.Refines(constant));
  for (const Column* column : candidates) {
    const Column* const one[] = {column};
    std::vector<uint8_t> single;
    pli.RefinesAll(one, &single);
    FUZZ_ASSERT(single.size() == 1);
    FUZZ_ASSERT(pli.Refines(*column) == (single[0] != 0));
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const char* bytes = reinterpret_cast<const char*>(data);
  Result<Pli> parsed = Pli::Deserialize(bytes, size);
  if (!parsed.ok()) return 0;
  const Pli& pli = parsed.value();

  // Accepted buffers round-trip byte for byte.
  FUZZ_ASSERT(pli.SerializedBytes() == size);
  std::vector<char> again(size);
  pli.SerializeTo(again.data());
  FUZZ_ASSERT(size == 0 || std::memcmp(again.data(), bytes, size) == 0);

  if (pli.NumRows() > kMaxKernelRows) return 0;
  for (const bool scalar : {false, true}) {
    simd::ForceScalar(scalar);
    RunKernels(pli);
  }
  simd::ForceScalar(false);
  return 0;
}
