// The Ligra baseline (§5.1): synchronous processing that restarts the whole
// computation from initial values whenever the graph mutates.
//
// Each iteration is a dense pull: every vertex rebuilds its aggregation from
// its full in-neighborhood (CSC) and applies the vertex function. This is
// the behaviour Table 5's "Ligra" rows measure — no selective scheduling,
// no incremental reuse.
#ifndef SRC_ENGINE_LIGRA_ENGINE_H_
#define SRC_ENGINE_LIGRA_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <istream>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/algorithm.h"
#include "src/engine/stats.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/mutation.h"
#include "src/parallel/parallel_for.h"
#include "src/parallel/scheduler_scope.h"
#include "src/util/timer.h"

namespace graphbolt {

template <GraphAlgorithm Algo>
class LigraEngine {
 public:
  using Value = typename Algo::Value;

  struct Options {
    uint32_t max_iterations = 10;
    // When true, stop at the first iteration in which no value changes
    // (subject to max_iterations as a cap).
    bool run_to_convergence = false;
  };

  LigraEngine(MutableGraph* graph, Algo algo, Options options = {})
      : graph_(graph), algo_(std::move(algo)), options_(options) {}

  // Runs the full synchronous computation from initial values. Canonical
  // entry point of the StreamingEngine API (src/core/streaming_engine.h).
  void InitialCompute() {
    Timer timer;
    SchedulerCounterScope scheduler(&stats_);
    stats_.Clear();
    contexts_ = ComputeVertexContexts(*graph_);
    const VertexId n = graph_->num_vertices();
    values_.resize(n);
    ParallelFor(0, n, [&](size_t v) {
      values_[v] = algo_.InitialValue(static_cast<VertexId>(v), contexts_[v]);
    });
    std::vector<Value> next(n);
    for (uint32_t iter = 0; iter < options_.max_iterations; ++iter) {
      const bool changed = DenseIteration(&next);
      values_.swap(next);
      ++stats_.iterations;
      if (options_.run_to_convergence && !changed) {
        break;
      }
    }
    stats_.seconds = timer.Seconds();
  }

  // Applies the batch to the graph and recomputes from scratch.
  // Stats lifecycle (identical across engines, see stats.h): the mutation
  // is timed first, the recompute clears stats, then mutation_seconds is
  // assigned — stats() describes exactly this call.
  AppliedMutations ApplyMutations(const MutationBatch& batch) {
    SchedulerCounterScope scheduler(&stats_);
    Timer timer;
    AppliedMutations applied = graph_->ApplyBatch(batch);
    const double mutation_seconds = timer.Seconds();
    InitialCompute();
    stats_.mutation_seconds = mutation_seconds;
    return applied;
  }

  // The graph this engine computes over; the driver uses it to run
  // background-compaction maintenance between batches.
  MutableGraph* mutable_graph() { return graph_; }

  // Streams the computed state for checkpointing (CheckpointableEngine,
  // src/core/streaming_engine.h). Only values are persisted: contexts are
  // recomputed from the (separately restored) graph, and ApplyMutations
  // recomputes everything else from scratch anyway.
  bool SaveStateTo(std::ostream& out) const {
    static_assert(std::is_trivially_copyable_v<Value>);
    const uint64_t magic = kStateMagic;
    const uint64_t n = values_.size();
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(values_.data()),
              static_cast<std::streamsize>(n * sizeof(Value)));
    return static_cast<bool>(out);
  }

  bool LoadStateFrom(std::istream& in) {
    uint64_t magic = 0;
    uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (!in || magic != kStateMagic || n != graph_->num_vertices()) {
      return false;
    }
    values_.resize(n);
    if (!in.read(reinterpret_cast<char*>(values_.data()),
                 static_cast<std::streamsize>(n * sizeof(Value)))) {
      return false;
    }
    contexts_ = ComputeVertexContexts(*graph_);
    return true;
  }

  const std::vector<Value>& values() const { return values_; }
  const EngineStats& stats() const { return stats_; }
  const Algo& algorithm() const { return algo_; }

 private:
  static constexpr uint64_t kStateMagic = 0x47424C4753543031ULL;  // "GBLGST01"

  // One synchronous iteration over every vertex; returns whether any value
  // changed. Pull-based: no atomics needed since each vertex owns its cell.
  bool DenseIteration(std::vector<Value>* next) {
    const VertexId n = graph_->num_vertices();
    std::atomic<uint64_t> edges{0};
    std::atomic<bool> changed{false};
    ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
      uint64_t local_edges = 0;
      bool local_changed = false;
      for (size_t vi = lo; vi < hi; ++vi) {
        const VertexId v = static_cast<VertexId>(vi);
        auto agg = algo_.IdentityAggregate();
        const auto in_nbrs = graph_->InNeighbors(v);
        const auto in_wts = graph_->InWeights(v);
        for (size_t i = 0; i < in_nbrs.size(); ++i) {
          const VertexId u = in_nbrs[i];
          algo_.AggregateAtomic(
              &agg, algo_.ContributionOf(u, values_[u], in_wts[i], contexts_[u]));
        }
        local_edges += in_nbrs.size();
        (*next)[vi] = algo_.VertexCompute(v, agg, contexts_[vi]);
        local_changed |= algo_.ValuesDiffer(values_[vi], (*next)[vi]);
      }
      edges.fetch_add(local_edges, std::memory_order_relaxed);
      if (local_changed) {
        changed.store(true, std::memory_order_relaxed);
      }
    });
    stats_.edges_processed += edges.load();
    return changed.load();
  }

  MutableGraph* graph_;
  Algo algo_;
  Options options_;
  std::vector<VertexContext> contexts_;
  std::vector<Value> values_;
  EngineStats stats_;
};

}  // namespace graphbolt

#endif  // SRC_ENGINE_LIGRA_ENGINE_H_
