// Multi-source reachability: each vertex accumulates a bitmask of which of
// up to 64 source vertices can reach it.
//
//   c(v) = seed_mask(v) | ⋃_{(u,v) ∈ E} c(u)
//
// The aggregation is bitwise OR — idempotent and monotonic under additions
// (like min/max, it cannot retract a bit), so it exercises the engine's
// non-decomposable machinery with an *integer* aggregate type. Unlike
// min/max it is not selective: an OR can owe a bit to any non-zero input,
// so the engine re-pulls a vertex whenever a non-zero input of it is
// deleted or loses bits. This is the
// core of neighborhood-function / radius estimation algorithms (the
// Ligra-family "MSBFS" pattern), and a streaming primitive in its own
// right: which regions can my monitors still see as edges churn?
#ifndef SRC_ALGORITHMS_MULTI_SOURCE_REACH_H_
#define SRC_ALGORITHMS_MULTI_SOURCE_REACH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/algorithm.h"
#include "src/util/logging.h"

namespace graphbolt {

class MultiSourceReach {
 public:
  using Value = uint64_t;        // bit s set <=> source s reaches v
  using Aggregate = uint64_t;
  using Contribution = uint64_t;

  static constexpr AggregationKind kKind = AggregationKind::kNonDecomposable;
  static constexpr bool kMonotonic = true;  // additions only set more bits
  static constexpr bool kContextFree = true;  // the reach mask ignores degrees

  explicit MultiSourceReach(std::vector<VertexId> sources, VertexId num_vertices)
      : seed_masks_(std::make_shared<std::vector<uint64_t>>(num_vertices, 0)) {
    GB_CHECK(sources.size() <= 64) << "at most 64 sources per instance";
    for (size_t s = 0; s < sources.size(); ++s) {
      GB_CHECK(sources[s] < num_vertices) << "source out of range";
      (*seed_masks_)[sources[s]] |= 1ULL << s;
    }
  }

  Value InitialValue(VertexId v, const VertexContext& /*ctx*/) const { return SeedMask(v); }

  Aggregate IdentityAggregate() const { return 0; }

  Contribution ContributionOf(VertexId /*u*/, const Value& value, Weight /*w*/,
                              const VertexContext& /*ctx*/) const {
    return value;
  }

  void AggregateAtomic(Aggregate* agg, const Contribution& c) const {
    reinterpret_cast<std::atomic<uint64_t>*>(agg)->fetch_or(c, std::memory_order_relaxed);
  }

  void RetractAtomic(Aggregate* /*agg*/, const Contribution& /*c*/) const {
    GB_CHECK(false) << "bitwise OR is non-decomposable; retraction is undefined";
  }

  Value VertexCompute(VertexId v, const Aggregate& agg, const VertexContext& /*ctx*/) const {
    return agg | SeedMask(v);
  }

  bool ValuesDiffer(const Value& a, const Value& b) const { return a != b; }

 private:
  uint64_t SeedMask(VertexId v) const {
    return v < seed_masks_->size() ? (*seed_masks_)[v] : 0;
  }

  std::shared_ptr<std::vector<uint64_t>> seed_masks_;
};

}  // namespace graphbolt

#endif  // SRC_ALGORITHMS_MULTI_SOURCE_REACH_H_
