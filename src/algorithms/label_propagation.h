// Label Propagation (Zhu & Ghahramani, Table 4):
//
//   agg(v)[f] = Σ_{(u,v) ∈ E} c(u)[f] · weight(u,v)
//   c(v)      = seed(v) fixed one-hot, else normalize(agg(v))
//
// Vertex values are label distributions (fixed arity L). The aggregation is
// a per-label weighted sum — decomposable — and the combined delta applies
// (new − old) · weight in one pass.
#ifndef SRC_ALGORITHMS_LABEL_PROPAGATION_H_
#define SRC_ALGORITHMS_LABEL_PROPAGATION_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/algorithm.h"
#include "src/parallel/atomics.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace graphbolt {

template <int kLabels = 2>
class LabelPropagation {
 public:
  using Value = std::array<double, kLabels>;
  using Aggregate = std::array<double, kLabels>;
  using Contribution = std::array<double, kLabels>;

  static constexpr AggregationKind kKind = AggregationKind::kDecomposable;

  // Assigns `seed_fraction` of vertices a fixed one-hot label (round-robin
  // over labels, pseudo-random vertex choice).
  LabelPropagation(VertexId num_vertices, double seed_fraction = 0.1, uint64_t seed = 7,
                   double tolerance = 1e-9)
      : seeds_(std::make_shared<std::vector<int8_t>>(num_vertices, int8_t{-1})),
        tolerance_(tolerance) {
    Rng rng(seed);
    const auto num_seeds = static_cast<VertexId>(static_cast<double>(num_vertices) * seed_fraction);
    for (VertexId i = 0; i < num_seeds; ++i) {
      const auto v = static_cast<VertexId>(rng.NextBounded(num_vertices));
      (*seeds_)[v] = static_cast<int8_t>(i % kLabels);
    }
  }

  Value InitialValue(VertexId v, const VertexContext& /*ctx*/) const {
    return SeedOrUniform(v);
  }

  Aggregate IdentityAggregate() const {
    Aggregate agg{};
    return agg;
  }

  Contribution ContributionOf(VertexId /*u*/, const Value& value, Weight w,
                              const VertexContext& /*ctx*/) const {
    Contribution c;
    for (int f = 0; f < kLabels; ++f) {
      c[f] = value[f] * w;
    }
    return c;
  }

  Contribution DeltaContribution(VertexId /*u*/, const Value& old_value, const Value& new_value,
                                 Weight w, const VertexContext& /*old_ctx*/,
                                 const VertexContext& /*new_ctx*/) const {
    Contribution c;
    for (int f = 0; f < kLabels; ++f) {
      c[f] = (new_value[f] - old_value[f]) * w;
    }
    return c;
  }

  void AggregateAtomic(Aggregate* agg, const Contribution& c) const {
    for (int f = 0; f < kLabels; ++f) {
      AtomicAdd(&(*agg)[f], c[f]);
    }
  }

  void RetractAtomic(Aggregate* agg, const Contribution& c) const {
    for (int f = 0; f < kLabels; ++f) {
      AtomicAdd(&(*agg)[f], -c[f]);
    }
  }

  void AggregateLocal(Aggregate* agg, const Contribution& c) const {
    for (int f = 0; f < kLabels; ++f) {
      (*agg)[f] += c[f];
    }
  }

  Value VertexCompute(VertexId v, const Aggregate& agg, const VertexContext& /*ctx*/) const {
    if (v < seeds_->size() && (*seeds_)[v] >= 0) {
      return SeedOrUniform(v);  // seed labels are clamped
    }
    double total = 0.0;
    for (int f = 0; f < kLabels; ++f) {
      total += agg[f];
    }
    Value value;
    if (total <= 1e-12) {
      value.fill(1.0 / kLabels);
      return value;
    }
    for (int f = 0; f < kLabels; ++f) {
      value[f] = agg[f] / total;
    }
    return value;
  }

  bool ValuesDiffer(const Value& a, const Value& b) const {
    for (int f = 0; f < kLabels; ++f) {
      if (std::fabs(a[f] - b[f]) > tolerance_) {
        return true;
      }
    }
    return false;
  }

  bool IsSeed(VertexId v) const { return v < seeds_->size() && (*seeds_)[v] >= 0; }

 private:
  Value SeedOrUniform(VertexId v) const {
    Value value;
    if (v < seeds_->size() && (*seeds_)[v] >= 0) {
      value.fill(0.0);
      value[(*seeds_)[v]] = 1.0;
    } else {
      value.fill(1.0 / kLabels);
    }
    return value;
  }

  std::shared_ptr<std::vector<int8_t>> seeds_;
  double tolerance_;
};

}  // namespace graphbolt

#endif  // SRC_ALGORITHMS_LABEL_PROPAGATION_H_
