// The GB-Reset baseline (§5.1): incremental *during* processing — change
// propagation with selective scheduling, like Ligra's PageRankDelta — but a
// full restart whenever the graph mutates.
//
// A running aggregation array is maintained across iterations: when a
// vertex's value changes, only its out-edges are reprocessed, retracting the
// old contribution and aggregating the new one (or applying a combined
// delta for decomposable aggregations). Non-decomposable aggregations
// (min/max) cannot retract, so the engine re-evaluates impacted vertices by
// pulling their full in-neighborhood instead.
#ifndef SRC_ENGINE_RESET_ENGINE_H_
#define SRC_ENGINE_RESET_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <istream>
#include <mutex>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/algorithm.h"
#include "src/engine/stats.h"
#include "src/engine/vertex_subset.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/mutation.h"
#include "src/parallel/parallel_for.h"
#include "src/parallel/scheduler_scope.h"
#include "src/util/timer.h"

namespace graphbolt {

// Detects the optional fast path for decomposable aggregations: a combined
// delta contribution applied with a single Aggregate call (propagateDelta in
// Algorithm 3 of the paper).
// The delta takes both the old and the new context of the contributor: a
// structural mutation can change a vertex's out-degree, which changes its
// contribution even when its value is unchanged (Algorithm 3, line 8 uses
// old_degree and new_degree).
template <typename A>
concept HasDeltaContribution =
    requires(const A algo, VertexId u, const typename A::Value& old_value,
             const typename A::Value& new_value, Weight w, const VertexContext& ctx) {
      {
        algo.DeltaContribution(u, old_value, new_value, w, ctx, ctx)
      } -> std::same_as<typename A::Contribution>;
    };

template <GraphAlgorithm Algo>
class ResetEngine {
 public:
  using Value = typename Algo::Value;
  using Aggregate = typename Algo::Aggregate;

  struct Options {
    uint32_t max_iterations = 10;
    bool run_to_convergence = false;
    // Ligra-style direction optimization: when the frontier's outgoing-edge
    // count exceeds this fraction of |E|, the iteration switches from
    // sparse push (retract+aggregate per active edge) to a dense pull that
    // rebuilds every aggregation from scratch. Set >= 1 to disable.
    double dense_threshold = 0.5;
  };

  ResetEngine(MutableGraph* graph, Algo algo, Options options = {})
      : graph_(graph), algo_(std::move(algo)), options_(options) {}

  // Runs the computation from initial values with selective scheduling.
  // Canonical entry point of the StreamingEngine API.
  void InitialCompute() {
    Timer timer;
    SchedulerCounterScope scheduler(&stats_);
    stats_.Clear();
    contexts_ = ComputeVertexContexts(*graph_);
    const VertexId n = graph_->num_vertices();
    values_.assign(n, Value{});
    aggregates_.assign(n, algo_.IdentityAggregate());
    ParallelFor(0, n, [&](size_t v) {
      values_[v] = algo_.InitialValue(static_cast<VertexId>(v), contexts_[v]);
    });

    // Iteration 1 is a full pass: every vertex contributes its initial value.
    std::vector<std::pair<VertexId, Value>> frontier = FullFirstIteration();
    ++stats_.iterations;

    while (stats_.iterations < options_.max_iterations) {
      if (options_.run_to_convergence && frontier.empty()) {
        break;
      }
      frontier = DeltaIteration(frontier);
      ++stats_.iterations;
    }
    stats_.seconds = timer.Seconds();
  }

  // Stats lifecycle (identical across engines, see stats.h): mutation timed
  // first, recompute clears, then mutation_seconds assigned.
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
  // src/core/streaming_engine.h). Values only: contexts are recomputed from
  // the restored graph, and the aggregation array is rebuilt by the full
  // restart every ApplyMutations performs.
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
  static constexpr bool kPullBased = Algo::kKind == AggregationKind::kNonDecomposable;
  static constexpr uint64_t kStateMagic = 0x4742525353543031ULL;  // "GBRSST01"

  // Aggregates every vertex's initial contribution (pull over the CSC; no
  // atomics contended since each vertex owns its cell), computes iteration-1
  // values, and returns the changed set with pre-change values.
  std::vector<std::pair<VertexId, Value>> FullFirstIteration() {
    const VertexId n = graph_->num_vertices();
    std::atomic<uint64_t> edges{0};
    ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
      uint64_t local_edges = 0;
      for (size_t vi = lo; vi < hi; ++vi) {
        const VertexId v = static_cast<VertexId>(vi);
        const auto in_nbrs = graph_->InNeighbors(v);
        const auto in_wts = graph_->InWeights(v);
        for (size_t i = 0; i < in_nbrs.size(); ++i) {
          const VertexId u = in_nbrs[i];
          algo_.AggregateAtomic(&aggregates_[vi],
                                algo_.ContributionOf(u, values_[u], in_wts[i], contexts_[u]));
        }
        local_edges += in_nbrs.size();
      }
      edges.fetch_add(local_edges, std::memory_order_relaxed);
    });
    stats_.edges_processed += edges.load();

    std::vector<std::pair<VertexId, Value>> changed;
    std::mutex merge;
    ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
      std::vector<std::pair<VertexId, Value>> local;
      for (size_t vi = lo; vi < hi; ++vi) {
        const VertexId v = static_cast<VertexId>(vi);
        const Value next = algo_.VertexCompute(v, aggregates_[vi], contexts_[vi]);
        if (algo_.ValuesDiffer(values_[vi], next)) {
          local.emplace_back(v, values_[vi]);
          values_[vi] = next;
        }
      }
      std::lock_guard<std::mutex> lock(merge);
      changed.insert(changed.end(), local.begin(), local.end());
    });
    return changed;
  }

  // One selective iteration driven by the changed set of the previous one.
  // Frontier entries carry the value whose contribution currently sits in
  // the aggregation array, so it can be retracted exactly.
  std::vector<std::pair<VertexId, Value>> DeltaIteration(
      const std::vector<std::pair<VertexId, Value>>& frontier) {
    const VertexId n = graph_->num_vertices();

    if constexpr (!kPullBased) {
      // Direction optimization: a huge frontier is cheaper to process as a
      // dense pull over every vertex than as per-edge retract+aggregate
      // pairs.
      uint64_t frontier_out_edges = 0;
      for (const auto& [u, old_value] : frontier) {
        frontier_out_edges += graph_->OutDegree(u);
      }
      if (static_cast<double>(frontier_out_edges) >
          options_.dense_threshold * static_cast<double>(graph_->num_edges())) {
        return DenseResetIteration();
      }
    }

    FrontierBuilder touched(n);
    std::atomic<uint64_t> edges{0};

    if constexpr (kPullBased) {
      // Mark out-neighbors of changed vertices; re-evaluate them by pulling.
      ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          for (const VertexId w : graph_->OutNeighbors(frontier[i].first)) {
            touched.Claim(w);
          }
        }
      }, /*grain=*/64);
    } else {
      ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
        uint64_t local_edges = 0;
        for (size_t i = lo; i < hi; ++i) {
          const auto& [u, old_value] = frontier[i];
          const auto out_nbrs = graph_->OutNeighbors(u);
          const auto out_wts = graph_->OutWeights(u);
          for (size_t e = 0; e < out_nbrs.size(); ++e) {
            const VertexId w = out_nbrs[e];
            if constexpr (HasDeltaContribution<Algo>) {
              algo_.AggregateAtomic(&aggregates_[w],
                                    algo_.DeltaContribution(u, old_value, values_[u], out_wts[e],
                                                            contexts_[u], contexts_[u]));
            } else {
              algo_.RetractAtomic(&aggregates_[w],
                                  algo_.ContributionOf(u, old_value, out_wts[e], contexts_[u]));
              algo_.AggregateAtomic(&aggregates_[w],
                                    algo_.ContributionOf(u, values_[u], out_wts[e], contexts_[u]));
            }
            touched.Claim(w);
          }
          local_edges += out_nbrs.size();
        }
        edges.fetch_add(local_edges, std::memory_order_relaxed);
      }, /*grain=*/64);
    }

    // TakeAuto: dense recompute sets stay in bitset form and are swept
    // below without the O(universe) sparse pack; both walks ascend, so a
    // single-threaded iteration commits identically either way.
    VertexSubset to_recompute = touched.TakeAuto();
    const auto repull_one = [&](VertexId v, uint64_t* local_edges) {
      Aggregate agg = algo_.IdentityAggregate();
      const auto in_nbrs = graph_->InNeighbors(v);
      const auto in_wts = graph_->InWeights(v);
      for (size_t e = 0; e < in_nbrs.size(); ++e) {
        const VertexId u = in_nbrs[e];
        algo_.AggregateAtomic(&agg,
                              algo_.ContributionOf(u, values_[u], in_wts[e], contexts_[u]));
      }
      *local_edges += in_nbrs.size();
      aggregates_[v] = agg;
    };
    if constexpr (kPullBased) {
      // Re-evaluate the aggregation of each touched vertex from scratch.
      if (to_recompute.dense_only()) {
        const AtomicBitset& bits = to_recompute.Dense();
        ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
          uint64_t local_edges = 0;
          for (size_t vi = lo; vi < hi; ++vi) {
            const VertexId v = static_cast<VertexId>(vi);
            if (bits.Test(v)) {
              repull_one(v, &local_edges);
            }
          }
          edges.fetch_add(local_edges, std::memory_order_relaxed);
        }, /*grain=*/512);
      } else {
        ParallelForChunks(0, to_recompute.size(), [&](size_t lo, size_t hi) {
          uint64_t local_edges = 0;
          for (size_t i = lo; i < hi; ++i) {
            repull_one(to_recompute.members()[i], &local_edges);
          }
          edges.fetch_add(local_edges, std::memory_order_relaxed);
        }, /*grain=*/64);
      }
    }
    stats_.edges_processed += edges.load();

    std::vector<std::pair<VertexId, Value>> changed;
    std::mutex merge;
    const auto commit_one = [&](VertexId v, std::vector<std::pair<VertexId, Value>>* local) {
      const Value next = algo_.VertexCompute(v, aggregates_[v], contexts_[v]);
      if (algo_.ValuesDiffer(values_[v], next)) {
        local->emplace_back(v, values_[v]);
        values_[v] = next;
      }
    };
    if (to_recompute.dense_only()) {
      const AtomicBitset& bits = to_recompute.Dense();
      ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
        std::vector<std::pair<VertexId, Value>> local;
        for (size_t vi = lo; vi < hi; ++vi) {
          const VertexId v = static_cast<VertexId>(vi);
          if (bits.Test(v)) {
            commit_one(v, &local);
          }
        }
        std::lock_guard<std::mutex> lock(merge);
        changed.insert(changed.end(), local.begin(), local.end());
      }, /*grain=*/512);
    } else {
      ParallelForChunks(0, to_recompute.size(), [&](size_t lo, size_t hi) {
        std::vector<std::pair<VertexId, Value>> local;
        for (size_t i = lo; i < hi; ++i) {
          commit_one(to_recompute.members()[i], &local);
        }
        std::lock_guard<std::mutex> lock(merge);
        changed.insert(changed.end(), local.begin(), local.end());
      }, /*grain=*/256);
    }
    return changed;
  }

  // Dense pull: rebuilds every vertex's aggregation from its in-neighbors
  // and returns the changed set. Leaves `aggregates_` consistent with the
  // current values, so subsequent sparse iterations can keep retracting.
  std::vector<std::pair<VertexId, Value>> DenseResetIteration() {
    const VertexId n = graph_->num_vertices();
    std::atomic<uint64_t> edges{0};
    std::vector<std::pair<VertexId, Value>> changed;
    std::mutex merge;
    std::vector<Aggregate> fresh(n, algo_.IdentityAggregate());
    ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
      uint64_t local_edges = 0;
      for (size_t vi = lo; vi < hi; ++vi) {
        const VertexId v = static_cast<VertexId>(vi);
        const auto in_nbrs = graph_->InNeighbors(v);
        const auto in_wts = graph_->InWeights(v);
        for (size_t i = 0; i < in_nbrs.size(); ++i) {
          const VertexId u = in_nbrs[i];
          algo_.AggregateAtomic(&fresh[vi],
                                algo_.ContributionOf(u, values_[u], in_wts[i], contexts_[u]));
        }
        local_edges += in_nbrs.size();
      }
      edges.fetch_add(local_edges, std::memory_order_relaxed);
    });
    stats_.edges_processed += edges.load();
    aggregates_.swap(fresh);
    ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
      std::vector<std::pair<VertexId, Value>> local;
      for (size_t vi = lo; vi < hi; ++vi) {
        const VertexId v = static_cast<VertexId>(vi);
        const Value next = algo_.VertexCompute(v, aggregates_[vi], contexts_[vi]);
        if (algo_.ValuesDiffer(values_[vi], next)) {
          local.emplace_back(v, values_[vi]);
          values_[vi] = next;
        }
      }
      std::lock_guard<std::mutex> lock(merge);
      changed.insert(changed.end(), local.begin(), local.end());
    });
    return changed;
  }

  MutableGraph* graph_;
  Algo algo_;
  Options options_;
  std::vector<VertexContext> contexts_;
  std::vector<Value> values_;
  std::vector<Aggregate> aggregates_;
  EngineStats stats_;
};

}  // namespace graphbolt

#endif  // SRC_ENGINE_RESET_ENGINE_H_
