// PageRank (Table 4):  c(v) = 0.15 + 0.85 · Σ_{(u,v) ∈ E} c(u)/out_degree(u)
//
// A simple decomposable aggregation (sum). Provides the combined
// DeltaContribution fast path of Algorithm 3 (propagateDelta): a change of
// value or of out-degree folds into a single atomic add.
#ifndef SRC_ALGORITHMS_PAGERANK_H_
#define SRC_ALGORITHMS_PAGERANK_H_

#include <cmath>

#include "src/core/algorithm.h"
#include "src/parallel/atomics.h"

namespace graphbolt {

class PageRank {
 public:
  using Value = double;
  using Aggregate = double;
  using Contribution = double;

  static constexpr AggregationKind kKind = AggregationKind::kDecomposable;

  explicit PageRank(double damping = 0.85, double tolerance = 1e-9)
      : damping_(damping), tolerance_(tolerance) {}

  Value InitialValue(VertexId /*v*/, const VertexContext& /*ctx*/) const { return 1.0; }

  Aggregate IdentityAggregate() const { return 0.0; }

  Contribution ContributionOf(VertexId /*u*/, const Value& value, Weight /*w*/,
                              const VertexContext& ctx) const {
    return value / Fanout(ctx);
  }

  Contribution DeltaContribution(VertexId /*u*/, const Value& old_value, const Value& new_value,
                                 Weight /*w*/, const VertexContext& old_ctx,
                                 const VertexContext& new_ctx) const {
    return new_value / Fanout(new_ctx) - old_value / Fanout(old_ctx);
  }

  void AggregateAtomic(Aggregate* agg, const Contribution& c) const { AtomicAdd(agg, c); }
  void AggregateLocal(Aggregate* agg, const Contribution& c) const { *agg += c; }
  void RetractAtomic(Aggregate* agg, const Contribution& c) const { AtomicAdd(agg, -c); }

  Value VertexCompute(VertexId /*v*/, const Aggregate& agg, const VertexContext& /*ctx*/) const {
    return (1.0 - damping_) + damping_ * agg;
  }

  bool ValuesDiffer(const Value& a, const Value& b) const { return std::fabs(a - b) > tolerance_; }

  double damping() const { return damping_; }

 private:
  // Dangling vertices contribute as if they had one edge so their rank is
  // not silently dropped from the system.
  static double Fanout(const VertexContext& ctx) {
    return ctx.out_degree > 0 ? static_cast<double>(ctx.out_degree) : 1.0;
  }

  double damping_;
  double tolerance_;
};

}  // namespace graphbolt

#endif  // SRC_ALGORITHMS_PAGERANK_H_
