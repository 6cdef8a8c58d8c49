// Generalized KickStarter: the dependence-tree incremental technique of
// Vora et al. (ASPLOS'17) templated over any monotonic path algorithm.
//
// A monotonic path algorithm is described by a traits type:
//
//   struct SsspTraits {
//     using Value = double;
//     Value InitialValue(VertexId v) const;        // source seed / worst
//     Value Worst() const;                          // the no-path value
//     bool Better(Value a, Value b) const;          // strict improvement
//     Value Relax(Value u, Weight w) const;         // candidate via (u,v)
//   };
//
// Each vertex remembers the in-neighbor its value came from (its parent in
// the dependence tree). Additions relax; a deletion (or a worsening weight
// update) of a tree edge invalidates the subtree hanging off it, whose
// vertices are trimmed to safe approximations pulled from unaffected
// in-neighbors and then corrected by monotonic propagation. No per-
// iteration history is kept and no BSP guarantee is given — the asynchrony
// monotonic algorithms tolerate is the whole trick (§5.4B of GraphBolt).
#ifndef SRC_KICKSTARTER_KICKSTARTER_ENGINE_H_
#define SRC_KICKSTARTER_KICKSTARTER_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/streaming_engine.h"
#include "src/engine/stats.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/mutation.h"
#include "src/graph/types.h"
#include "src/parallel/scheduler_scope.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace graphbolt {

template <typename Traits>
class KickStarterEngine {
 public:
  using Value = typename Traits::Value;

  KickStarterEngine(MutableGraph* graph, Traits traits)
      : graph_(graph), traits_(std::move(traits)) {}

  // Full computation from scratch (builds the dependence tree).
  void InitialCompute() {
    Timer timer;
    SchedulerCounterScope scheduler(&stats_);
    stats_.Clear();
    const VertexId n = graph_->num_vertices();
    values_.assign(n, traits_.Worst());
    parent_.assign(n, kInvalidVertex);
    std::vector<VertexId> seeds;
    for (VertexId v = 0; v < n; ++v) {
      values_[v] = traits_.InitialValue(v);
      if (traits_.Better(values_[v], traits_.Worst())) {
        seeds.push_back(v);
      }
    }
    Propagate(std::move(seeds));
    stats_.seconds = timer.Seconds();
  }

  // Applies the batch and incrementally corrects values.
  // Stats lifecycle (identical across engines, see stats.h): the mutation
  // is timed first, then Clear(), then mutation_seconds is assigned — so
  // stats() describes exactly this call, like the other three engines.
  AppliedMutations ApplyMutations(const MutationBatch& batch) {
    SchedulerCounterScope scheduler(&stats_);
    Timer mutation_timer;
    AppliedMutations applied = graph_->ApplyBatch(batch);
    const double mutation_seconds = mutation_timer.Seconds();
    stats_.Clear();
    stats_.mutation_seconds = mutation_seconds;

    Timer timer;
    const VertexId n = graph_->num_vertices();
    const auto old_n = static_cast<VertexId>(values_.size());
    values_.resize(n, traits_.Worst());
    parent_.resize(n, kInvalidVertex);
    for (VertexId v = old_n; v < n; ++v) {
      values_[v] = traits_.InitialValue(v);
    }

    // 1. Deleted tree edges invalidate their destination's value.
    std::vector<uint8_t> affected(n, 0);
    std::vector<VertexId> seeds;
    for (const Edge& e : applied.deleted) {
      if (parent_[e.dst] == e.src && !affected[e.dst]) {
        affected[e.dst] = 1;
        seeds.push_back(e.dst);
      }
    }

    // 2. The invalidation propagates down the dependence tree.
    if (!seeds.empty()) {
      std::vector<std::vector<VertexId>> children(n);
      for (VertexId v = 0; v < n; ++v) {
        if (parent_[v] != kInvalidVertex) {
          children[parent_[v]].push_back(v);
        }
      }
      std::vector<VertexId> frontier = seeds;
      while (!frontier.empty()) {
        std::vector<VertexId> next;
        for (const VertexId a : frontier) {
          for (const VertexId c : children[a]) {
            if (!affected[c]) {
              affected[c] = 1;
              seeds.push_back(c);
              next.push_back(c);
            }
          }
        }
        frontier.swap(next);
      }
    }

    // 3. Trim affected vertices to the best value obtainable from
    // unaffected in-neighbors — a safe approximation the monotonic
    // propagation then improves.
    std::vector<VertexId> worklist;
    uint64_t edges = 0;
    for (const VertexId a : seeds) {
      values_[a] = traits_.InitialValue(a);
      parent_[a] = kInvalidVertex;
    }
    for (const VertexId a : seeds) {
      const auto in_nbrs = graph_->InNeighbors(a);
      const auto in_wts = graph_->InWeights(a);
      edges += in_nbrs.size();
      for (size_t e = 0; e < in_nbrs.size(); ++e) {
        const VertexId u = in_nbrs[e];
        if (affected[u]) {
          continue;
        }
        const Value candidate = traits_.Relax(values_[u], in_wts[e]);
        if (traits_.Better(candidate, values_[a])) {
          values_[a] = candidate;
          parent_[a] = u;
        }
      }
      if (traits_.Better(values_[a], traits_.Worst())) {
        worklist.push_back(a);  // any valid value (own seed or pulled) re-propagates
      }
    }
    stats_.edges_processed += edges;

    // 4. Additions (and improved weights) relax directly.
    for (const Edge& e : applied.added) {
      const Value candidate = traits_.Relax(values_[e.src], e.weight);
      if (traits_.Better(candidate, values_[e.dst])) {
        values_[e.dst] = candidate;
        parent_[e.dst] = e.src;
        worklist.push_back(e.dst);
      }
    }
    // Seeds whose value was invalidated but found no unaffected neighbor
    // may still be reached from other corrected vertices; trimmed seeds
    // with a valid approximation propagate from step 3's worklist.
    std::sort(worklist.begin(), worklist.end());
    worklist.erase(std::unique(worklist.begin(), worklist.end()), worklist.end());
    Propagate(std::move(worklist));
    stats_.seconds = timer.Seconds();
    return applied;
  }

  // Streams the computed state for checkpointing (CheckpointableEngine,
  // src/core/streaming_engine.h). Values AND the dependence tree: parents
  // are what deletion handling invalidates, so they must survive recovery
  // for post-restore batches to correct exactly as an uninterrupted run.
  bool SaveStateTo(std::ostream& out) const {
    static_assert(std::is_trivially_copyable_v<Value>);
    const uint64_t magic = kStateMagic;
    const uint64_t n = values_.size();
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(values_.data()),
              static_cast<std::streamsize>(n * sizeof(Value)));
    out.write(reinterpret_cast<const char*>(parent_.data()),
              static_cast<std::streamsize>(n * sizeof(VertexId)));
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
    parent_.resize(n);
    in.read(reinterpret_cast<char*>(values_.data()),
            static_cast<std::streamsize>(n * sizeof(Value)));
    in.read(reinterpret_cast<char*>(parent_.data()),
            static_cast<std::streamsize>(n * sizeof(VertexId)));
    return static_cast<bool>(in);
  }

  const std::vector<Value>& values() const { return values_; }
  const std::vector<VertexId>& parents() const { return parent_; }
  const EngineStats& stats() const { return stats_; }

  // The graph this engine computes over; the driver uses it to run
  // background-compaction maintenance between batches.
  MutableGraph* mutable_graph() { return graph_; }

  // ----- Single-update fast path (src/driver/fast_path.h) -------------------
  // Classifies one mutation against the tagged dependencies (the dependence
  // tree). Safe means the batched ApplyMutations path would provably leave
  // values_ and parent_ bitwise unchanged — a value-preserving addition
  // (its Relax candidate does not beat the target's value, so step 4 never
  // fires) or a non-tree deletion (parent_[dst] != src, so step 1 seeds no
  // invalidation) — making the mutation's whole effect the graph splice.
  // WAL replay through the batched path during Recover() then reconstructs
  // exactly the live state.
  FastPathVerdict ClassifyFast(const EdgeMutation& m) const {
    const VertexId n = graph_->num_vertices();
    if (m.src >= n || m.dst >= n) {
      return {false, "grows-vertex-set"};
    }
    if (values_.size() != static_cast<size_t>(n)) {
      return {false, "not-computed"};
    }
    const MutableGraph::SingleEffect eff = graph_->NormalizeSingle(m);
    if (eff.Empty()) {
      return {true, "graph-noop"};
    }
    if (eff.has_delete) {
      const Edge& e = eff.deleted;
      if (parent_[e.dst] == e.src) {
        return {false, "tree-edge"};
      }
    }
    if (eff.has_add) {
      const Edge& e = eff.added;
      if (traits_.Better(traits_.Relax(values_[e.src], e.weight), values_[e.dst])) {
        return {false, "relaxes-target"};
      }
    }
    if (eff.has_add && eff.has_delete) {
      return {true, "value-preserving-reweight"};
    }
    return {true, eff.has_add ? "cannot-relax" : "non-tree-edge"};
  }

  // Applies a mutation previously classified safe as a bare graph splice.
  // Re-validates first (the caller serializes this against batched applies,
  // but classification may have run before an intervening batch); returns
  // false to send the mutation down the batched path instead.
  bool ApplyFastSafe(const EdgeMutation& m) {
    if (!ClassifyFast(m).safe) {
      return false;
    }
    graph_->ApplySingle(m);
    return true;
  }

 private:
  static constexpr uint64_t kStateMagic = 0x47424B5353543031ULL;  // "GBKSST01"

  // Monotonic relaxation from a seed worklist until fixpoint.
  void Propagate(std::vector<VertexId> worklist) {
    std::vector<VertexId> next;
    uint64_t edges = 0;
    while (!worklist.empty()) {
      next.clear();
      for (const VertexId u : worklist) {
        const auto out_nbrs = graph_->OutNeighbors(u);
        const auto out_wts = graph_->OutWeights(u);
        edges += out_nbrs.size();
        for (size_t e = 0; e < out_nbrs.size(); ++e) {
          const VertexId v = out_nbrs[e];
          const Value candidate = traits_.Relax(values_[u], out_wts[e]);
          if (traits_.Better(candidate, values_[v])) {
            values_[v] = candidate;
            parent_[v] = u;
            next.push_back(v);
          }
        }
      }
      worklist.swap(next);
      ++stats_.iterations;
    }
    stats_.edges_processed += edges;
  }

  MutableGraph* graph_;
  Traits traits_;
  std::vector<Value> values_;
  std::vector<VertexId> parent_;
  EngineStats stats_;
};

// ----- Trait instances -------------------------------------------------------

// Shortest paths (weighted) / BFS (unit weights).
class KsSsspTraits {
 public:
  using Value = double;
  explicit KsSsspTraits(VertexId source, bool use_weights = true)
      : source_(source), use_weights_(use_weights) {}
  Value InitialValue(VertexId v) const { return v == source_ ? 0.0 : Worst(); }
  Value Worst() const { return 1e30; }
  bool Better(Value a, Value b) const { return a < b; }
  Value Relax(Value u, Weight w) const {
    return u >= Worst() ? Worst() : u + (use_weights_ ? static_cast<double>(w) : 1.0);
  }

 private:
  VertexId source_;
  bool use_weights_;
};

// Connected components by minimum reaching label.
class KsComponentsTraits {
 public:
  using Value = double;
  Value InitialValue(VertexId v) const { return static_cast<Value>(v); }
  Value Worst() const { return 1e30; }
  bool Better(Value a, Value b) const { return a < b; }
  Value Relax(Value u, Weight /*w*/) const { return u; }
};

// Widest (maximum bottleneck) path.
class KsWidestPathTraits {
 public:
  using Value = double;
  explicit KsWidestPathTraits(VertexId source) : source_(source) {}
  Value InitialValue(VertexId v) const { return v == source_ ? 1e30 : Worst(); }
  Value Worst() const { return 0.0; }
  bool Better(Value a, Value b) const { return a > b; }
  Value Relax(Value u, Weight w) const { return std::min(u, static_cast<Value>(w)); }

 private:
  VertexId source_;
};

}  // namespace graphbolt

#endif  // SRC_KICKSTARTER_KICKSTARTER_ENGINE_H_
