// The per-vertex accumulate/propagate kernel shared by both execution
// modes of GraphBoltEngine (src/core/graphbolt_engine.h).
//
// The synchronous BSP refinement loop and the asynchronous
// delta-accumulative mode (the Maiter-style barrier-free tier) perform the
// same two primitive operations on aggregation cells:
//
//   PushChange     apply one contributor's value/context change to a target
//                  cell — either as a combined delta (decomposable
//                  aggregations with DeltaContribution) or as a
//                  retract-old / aggregate-new pair.
//   PullChange     the same change folded into a cell the calling task owns
//                  (refinement's pull direction), without atomics when the
//                  algorithm has AggregateLocal.
//   PullAggregate  rebuild a vertex's aggregation from its full
//                  in-neighborhood under a given value assignment.
//
// Extracting them here keeps the two modes numerically identical edge by
// edge: an async step propagating a delta along (u, w) executes exactly the
// instruction sequence the BSP transitive-impact pass would, so the async
// fixed point coincides with the BSP fixed point for decomposable
// aggregations (PAPERS.md: Maiter's accumulative iterative computation).
#ifndef SRC_CORE_DELTA_KERNEL_H_
#define SRC_CORE_DELTA_KERNEL_H_

#include <vector>

#include "src/core/algorithm.h"
#include "src/engine/reset_engine.h"  // HasDeltaContribution
#include "src/graph/mutable_graph.h"

namespace graphbolt {

template <GraphAlgorithm Algo>
struct DeltaKernel {
  using Value = typename Algo::Value;
  using Aggregate = typename Algo::Aggregate;

  // Applies one change (retract old / aggregate new, or a combined delta) to
  // a target aggregation cell. `use_retract_propagate` forces the two-call
  // pair even when the algorithm offers a combined delta (the GraphBolt-RP
  // ablation of §5.4A).
  static void PushChange(const Algo& algo, bool use_retract_propagate, VertexId u,
                         const Value& old_value, const Value& new_value, Weight w,
                         const VertexContext& old_ctx, const VertexContext& new_ctx,
                         Aggregate* agg) {
    if constexpr (HasDeltaContribution<Algo>) {
      if (!use_retract_propagate) {
        algo.AggregateAtomic(agg,
                             algo.DeltaContribution(u, old_value, new_value, w, old_ctx, new_ctx));
        return;
      }
    }
    algo.RetractAtomic(agg, algo.ContributionOf(u, old_value, w, old_ctx));
    algo.AggregateAtomic(agg, algo.ContributionOf(u, new_value, w, new_ctx));
  }

  // PushChange into a private accumulator: the pull direction of a dense
  // refinement level sums one target's ⋃△ over its frontier in-edges
  // locally and writes the target's cell once. The combined delta goes
  // through the algorithm's non-atomic AggregateLocal; without that hook,
  // a combined delta, or under the retract+propagate ablation, the atomic
  // ops run on the (uncontended) private cell.
  static void PullChange(const Algo& algo, bool use_retract_propagate, VertexId u,
                         const Value& old_value, const Value& new_value, Weight w,
                         const VertexContext& old_ctx, const VertexContext& new_ctx,
                         Aggregate* local) {
    if constexpr (HasDeltaContribution<Algo> && HasLocalAggregate<Algo>) {
      if (!use_retract_propagate) {
        algo.AggregateLocal(local,
                            algo.DeltaContribution(u, old_value, new_value, w, old_ctx, new_ctx));
        return;
      }
    }
    PushChange(algo, use_retract_propagate, u, old_value, new_value, w, old_ctx, new_ctx, local);
  }

  // Re-evaluates g(v) by pulling the full in-neighborhood with `vals` under
  // `contexts`. `edge_counter` accumulates the in-degree for stats.
  static Aggregate PullAggregate(const Algo& algo, const MutableGraph& graph,
                                 const std::vector<VertexContext>& contexts, VertexId v,
                                 const std::vector<Value>& vals, uint64_t* edge_counter) {
    Aggregate agg = algo.IdentityAggregate();
    const auto in_nbrs = graph.InNeighbors(v);
    const auto in_wts = graph.InWeights(v);
    for (size_t i = 0; i < in_nbrs.size(); ++i) {
      const VertexId u = in_nbrs[i];
      algo.AggregateAtomic(&agg, algo.ContributionOf(u, vals[u], in_wts[i], contexts[u]));
    }
    *edge_counter += in_nbrs.size();
    return agg;
  }
};

}  // namespace graphbolt

#endif  // SRC_CORE_DELTA_KERNEL_H_
