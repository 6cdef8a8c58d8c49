#include "src/core/algorithm.h"

#include "src/parallel/parallel_for.h"

namespace graphbolt {

VertexContext ComputeVertexContext(const MutableGraph& graph, VertexId v) {
  VertexContext ctx;
  ctx.out_degree = static_cast<uint32_t>(graph.OutDegree(v));
  ctx.in_degree = static_cast<uint32_t>(graph.InDegree(v));
  for (const Weight w : graph.OutWeights(v)) {
    ctx.out_weight_sum += w;
  }
  for (const Weight w : graph.InWeights(v)) {
    ctx.in_weight_sum += w;
  }
  return ctx;
}

std::vector<VertexContext> ComputeVertexContexts(const MutableGraph& graph) {
  const VertexId n = graph.num_vertices();
  std::vector<VertexContext> contexts(n);
  ParallelFor(0, n, [&](size_t v) {
    contexts[v] = ComputeVertexContext(graph, static_cast<VertexId>(v));
  }, /*grain=*/512);
  return contexts;
}

}  // namespace graphbolt
