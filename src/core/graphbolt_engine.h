// The GraphBolt engine: BSP processing with dependency tracking, and
// dependency-driven value refinement on graph mutation (§3, §4).
//
// Initial computation runs the same selective-scheduling BSP loop as the
// GB-Reset baseline, but snapshots the aggregation array g_i(v) and the
// changed-vertex bits after every iteration into a DependencyStore.
//
// On a mutation batch (Ea, Ed) the engine refines the tracked levels
// iteration by iteration (§3.3):
//
//   g^T_i(v) = g_i(v)  ⊎_{(u,v) ∈ Ea} contrib(c_{i-1}(u))
//                      ⋃-_{(u,v) ∈ Ed} contrib(c_{i-1}(u))
//                      ⋃△_{(u,v) ∈ E^T, contrib changed} contrib(c^T_{i-1}(u))
//
// where "contrib changed" covers both value changes and vertex-context
// changes (a mutation changes the endpoint's degree, which changes its
// contribution along *all* its edges — Algorithm 3's old_degree/new_degree).
// The direct terms use old values with old contexts; the transitive term
// retracts (old value, old context) and aggregates (new value, new context)
// so the sum telescopes to exactly the new graph's aggregation.
//
// Past the tracked history (horizontal pruning) the engine switches to
// computation-aware hybrid execution (§4.2): selective pull-recomputation
// seeded by the per-iteration changed-vertex bit vectors recorded during the
// original run. Every vertex whose value could change — through the new
// dynamics (out-neighbors of the current frontier) or through the original
// dynamics (the recorded changed set) — is recomputed from its full
// in-neighborhood, so the continuation is still exact BSP.
//
// Each decomposable level picks its direction like Ligra's edgeMap: when the
// frontier's out-edges exceed |E|/20 the level pulls (every vertex scans its
// in-edges for frontier members and sums its ⋃△ locally) instead of
// claiming targets and pushing atomic deltas into them.
//
// Non-decomposable aggregations (min/max) cannot retract (§3.3 "Aggregation
// Properties & Extensions"). For a monotonic one the engine refines each
// level selectively: every changed or added input is folded into the stored
// aggregate with ⊕, and only a target that lost an input attaining its old
// aggregate (deleted, or worse than before) is re-evaluated by pulling its
// full in-neighborhood. For a selective ⊕ (min/max) an input attains the
// aggregate iff it equals it; for any other (bitwise OR) every non-identity
// input may. Other non-decomposable aggregations re-pull every target.
//
// When a refined run needs more levels than the stored one, the
// continuation snapshots the aggregates of the levels it adds, so the store
// still describes the whole run — as InitialCompute on the new snapshot
// would — up to the history_size cap.
#ifndef SRC_CORE_GRAPHBOLT_ENGINE_H_
#define SRC_CORE_GRAPHBOLT_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/algorithm.h"
#include "src/core/delta_kernel.h"
#include "src/core/dependency_store.h"
#include "src/core/streaming_engine.h"
#include "src/engine/reset_engine.h"  // HasDeltaContribution
#include "src/engine/stats.h"
#include "src/engine/vertex_subset.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/mutation.h"
#include "src/parallel/atomics.h"
#include "src/parallel/parallel_for.h"
#include "src/parallel/reducer.h"
#include "src/parallel/scheduler_scope.h"
#include "src/parallel/task_arena.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace graphbolt {

// `StoreT` selects the dependency-storage backend: the default dense
// per-level DependencyStore, or CompactDependencyStore for the paper's
// per-vertex contiguous layout with real vertical-pruning savings.
template <GraphAlgorithm Algo, typename StoreT = DependencyStore<typename Algo::Aggregate>>
class GraphBoltEngine {
 public:
  using Value = typename Algo::Value;
  using Aggregate = typename Algo::Aggregate;

  struct Options {
    uint32_t max_iterations = 10;
    bool run_to_convergence = false;
    // Horizontal pruning: number of iterations whose aggregations are
    // tracked. Refinement past this point uses hybrid execution. Must be
    // at least 1.
    uint32_t history_size = 1u << 30;
    // Forces retract+propagate pairs even when the algorithm offers a
    // combined delta (the GraphBolt-RP configuration of §5.4A).
    bool use_retract_propagate = false;
    // Computation-aware fallback (extension): when > 0, a batch mutating
    // more than this fraction of the graph's edges triggers a full
    // recompute-with-tracking instead of refinement — at such densities
    // refinement cost approaches (or exceeds) a GB-Reset restart.
    double reset_fallback_fraction = 0.0;
    // Ablation switch: forces full re-evaluation — every target of a
    // non-decomposable level pulls its full in-neighborhood, instead of
    // folding improved inputs and re-pulling only targets that lost an
    // attaining input.
    bool disable_monotonic_push = false;
  };

  GraphBoltEngine(MutableGraph* graph, Algo algo, Options options = {})
      : graph_(graph), algo_(std::move(algo)), options_(options) {
    GB_CHECK(options_.history_size >= 1) << "history_size must be >= 1";
  }

  // Runs the full computation from initial values, tracking dependencies.
  void InitialCompute() {
    Timer timer;
    SchedulerCounterScope scheduler(&stats_);
    stats_.Clear();
    ResetContexts();
    const VertexId n = graph_->num_vertices();
    store_.Reset(n, options_.history_size);
    values_.assign(n, Value{});
    aggregates_.assign(n, algo_.IdentityAggregate());
    ParallelFor(0, n, [&](size_t v) {
      values_[v] = algo_.InitialValue(static_cast<VertexId>(v), contexts_[v]);
    });

    std::vector<std::pair<VertexId, Value>> frontier = FirstIteration();
    while (store_.total_levels() < options_.max_iterations) {
      if (options_.run_to_convergence && frontier.empty()) {
        break;
      }
      frontier = TrackedIteration(frontier);
    }
    stats_.iterations = store_.total_levels();
    stats_.seconds = timer.Seconds();
  }

  // Applies the batch to the graph, refines the dependency store, and
  // continues computation to produce the new snapshot's final values.
  // Stats lifecycle (identical across engines, see stats.h): mutation timed
  // first, then Clear(), then mutation_seconds assigned.
  AppliedMutations ApplyMutations(const MutationBatch& batch) {
    GB_CHECK(!async_mode_) << "BSP ApplyMutations while in async mode; "
                              "use AsyncApplyMutations or ExitAsyncReconcile first";
    SchedulerCounterScope scheduler(&stats_);
    Timer mutation_timer;
    AppliedMutations applied = graph_->ApplyBatch(batch);
    const double mutation_seconds = mutation_timer.Seconds();

    const size_t mutated = applied.added.size() + applied.deleted.size();
    if (options_.reset_fallback_fraction > 0.0 &&
        static_cast<double>(mutated) >
            options_.reset_fallback_fraction * static_cast<double>(graph_->num_edges())) {
      InitialCompute();  // rebuilds values and the dependency store
      stats_.mutation_seconds = mutation_seconds;
      return applied;
    }

    Timer timer;
    stats_.Clear();
    stats_.mutation_seconds = mutation_seconds;
    if (!applied.Empty()) {
      Refine(applied);
    }
    stats_.seconds = timer.Seconds();
    return applied;
  }

  // Streams the engine's computed state (values + dependency store) so a
  // streaming session can resume in a fresh process — or so a Checkpointer
  // (src/fault/checkpoint.h) can embed it in a checkpoint file. The graph
  // itself is saved separately; LoadStateFrom must be called on an engine
  // whose graph already holds the same snapshot (contexts are recomputed
  // from it). Returns false on IO failure or mismatched state.
  bool SaveStateTo(std::ostream& out) const {
    static_assert(std::is_trivially_copyable_v<Value>);
    const uint64_t magic = kStateMagic;
    const uint64_t n = values_.size();
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(values_.data()),
              static_cast<std::streamsize>(n * sizeof(Value)));
    store_.SerializeTo(out);
    return static_cast<bool>(out);
  }

  bool LoadStateFrom(std::istream& in) {
    uint64_t magic = 0;
    uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (!in || magic != kStateMagic) {
      GB_LOG(kError) << "not a graphbolt engine state";
      return false;
    }
    if (n != graph_->num_vertices()) {
      GB_LOG(kError) << "state has " << n << " vertices but the graph has "
                     << graph_->num_vertices();
      return false;
    }
    values_.resize(n);
    in.read(reinterpret_cast<char*>(values_.data()),
            static_cast<std::streamsize>(n * sizeof(Value)));
    if (!in || !store_.DeserializeFrom(in)) {
      GB_LOG(kError) << "engine state truncated or malformed";
      return false;
    }
    ResetContexts();
    return true;
  }

  // Path-based convenience wrappers over the stream API.
  bool SaveState(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      GB_LOG(kError) << "cannot open " << path << " for writing";
      return false;
    }
    return SaveStateTo(out);
  }

  bool LoadState(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      GB_LOG(kError) << "cannot open " << path;
      return false;
    }
    return LoadStateFrom(in);
  }

  const std::vector<Value>& values() const { return values_; }
  const EngineStats& stats() const { return stats_; }
  const StoreT& store() const { return store_; }
  const Algo& algorithm() const { return algo_; }

  // The graph this engine computes over; the driver uses it to run
  // background-compaction maintenance between batches.
  MutableGraph* mutable_graph() { return graph_; }

  // ----- Single-update fast path (src/driver/fast_path.h) -------------------
  // Classifies one mutation against the dependency store. Safe means the
  // batched ApplyMutations path would provably leave values_ and the store
  // bitwise unchanged — the mutation's whole effect is the graph splice —
  // so WAL replay through the batched path during Recover() reconstructs
  // exactly the live state.
  //
  // Rules:
  //  - Graph no-ops (duplicate add, absent delete, self-loop) are safe for
  //    every algorithm: ApplyMutations on an empty normalized effect skips
  //    Refine entirely.
  //  - Real mutations are provable only for monotonic pull-based
  //    context-free algorithms (SSSP/BFS/CC/widest/reach). An addition is
  //    safe when its candidate contribution cannot improve the target's
  //    aggregation at any tracked level of the dependency store (min/max
  //    absorbs it without moving a bit); a deletion is safe when its
  //    contribution attains the aggregate at no level (MayAttain): for a
  //    selective ⊕ it is strictly dominated or the identity (removing a
  //    non-attaining input leaves each re-evaluated min unchanged); for
  //    any other ⊕ (bitwise OR) it is the identity.
  //  - Decomposable algorithms (PageRank): a real edge change shifts the
  //    endpoint's degree context, which moves its contribution along every
  //    incident edge, so only graph no-ops are safe.
  FastPathVerdict ClassifyFast(const EdgeMutation& m) const {
    const VertexId n = graph_->num_vertices();
    if (m.src >= n || m.dst >= n) {
      return {false, "grows-vertex-set"};
    }
    if (values_.size() != n) {
      return {false, "not-computed"};
    }
    const MutableGraph::SingleEffect eff = graph_->NormalizeSingle(m);
    if (eff.Empty()) {
      return {true, "graph-noop"};
    }
    if constexpr (!kPullBased) {
      return {false, "context-shift-moves-contributions"};
    } else if constexpr (!IsMonotonicAggregation<Algo>() || !IsContextFreeAlgorithm<Algo>()) {
      return {false, "algorithm-not-provable"};
    } else {
      if (options_.reset_fallback_fraction > 0.0) {
        return {false, "reset-fallback-configured"};
      }
      const uint32_t tracked = store_.tracked_levels();
      if (tracked == 0 || tracked != store_.total_levels()) {
        // Pruned history would hand the replay to the hybrid continuation,
        // whose intermediate aggregations are not stored and so not provable.
        return {false, "pruned-history"};
      }
      if (options_.run_to_convergence && store_.ChangedAt(tracked).Count() > 0) {
        return {false, "still-converging"};
      }
      // The refined replay rewrites the endpoints' final values from the
      // last tracked level; require that rewrite to be a bitwise no-op.
      auto final_consistent = [&](VertexId v) {
        return SameBits(values_[v],
                        algo_.VertexCompute(v, store_.At(tracked, v), contexts_[v]));
      };
      // c_{level-1}(src) as the refined run sees it entering `level`.
      auto value_entering = [&](uint32_t level, VertexId u) {
        return level == 1 ? algo_.InitialValue(u, contexts_[u])
                          : algo_.VertexCompute(u, store_.At(level - 1, u), contexts_[u]);
      };
      if (eff.has_add) {
        const Edge& e = eff.added;
        if (!final_consistent(e.src) || !final_consistent(e.dst)) {
          return {false, "stale-final-value"};
        }
        for (uint32_t level = 1; level <= tracked; ++level) {
          const auto cand =
              algo_.ContributionOf(e.src, value_entering(level, e.src), e.weight,
                                   contexts_[e.src]);
          const Aggregate& cur = store_.At(level, e.dst);
          Aggregate probe = cur;
          algo_.AggregateAtomic(&probe, cand);
          if (!SameBits(probe, cur)) {
            return {false, "relaxes-tracked-level"};
          }
        }
      }
      if (eff.has_delete) {
        const Edge& e = eff.deleted;
        if constexpr (!std::is_same_v<typename Algo::Contribution, Aggregate>) {
          return {false, "deletion-not-provable"};
        } else {
          if (!final_consistent(e.src) || !final_consistent(e.dst)) {
            return {false, "stale-final-value"};
          }
          for (uint32_t level = 1; level <= tracked; ++level) {
            const Aggregate cand =
                algo_.ContributionOf(e.src, value_entering(level, e.src), e.weight,
                                     contexts_[e.src]);
            const Aggregate& cur = store_.At(level, e.dst);
            // Dominating (shouldn't happen for a present edge) or attaining
            // the aggregate: the edge is load-bearing, escalate.
            if (!Dominates(cur, cand) || MayAttain(cand, cur)) {
              return {false, "attains-aggregate"};
            }
          }
        }
      }
      return {true, eff.has_delete ? "dominated-contribution" : "cannot-relax"};
    }
  }

  // Applies a mutation previously classified safe as a bare graph splice.
  // Re-validates first (the caller serializes this against batched applies,
  // but classification may have run before an intervening batch); returns
  // false to send the mutation down the batched path instead. Leaves
  // contexts_ stale and records the endpoints instead: the next batched
  // Refine recomputes their contexts without noting them as
  // context-changed, which is value-preserving for the context-free
  // algorithms real mutations are classified safe under.
  bool ApplyFastSafe(const EdgeMutation& m) {
    if (!ClassifyFast(m).safe) {
      return false;
    }
    if (!graph_->ApplySingle(m).Empty()) {
      stale_contexts_.push_back(m.src);
      stale_contexts_.push_back(m.dst);
      if (stale_contexts_.size() > 2 * static_cast<size_t>(graph_->num_vertices())) {
        SortUnique(&stale_contexts_);  // bounded by V between batches
      }
    }
    return true;
  }

  // ----- Async delta-accumulative mode (Maiter tier) ------------------------
  // For decomposable aggregations only: barrier-free accumulative iteration
  // in the style of Maiter / libgrape-lite's async delta PageRank. The
  // invariant throughout is
  //
  //   aggregates_[v] == ⊎_{(u,v) ∈ E} contrib(prop_values_[u])
  //
  // where prop_values_[u] is the value u last propagated along its
  // out-edges. A step picks active vertices (aggregate moved since their
  // last propagation) in residual-priority order, pushes each one's delta
  // to its out-neighbors through the same DeltaKernel the BSP refinement
  // uses, and publishes the new value. The mode converges to the *true*
  // algorithm fixed point — when BSP ran with a truncated iteration cap,
  // async values legitimately drift from the k-step front toward the fixed
  // point; that is the eventually-consistent contract.
  //
  // While async_mode() is true the dependency store is stale: BSP
  // ApplyMutations is rejected, and callers must not checkpoint engine
  // state. ExitAsyncReconcile() restores the BSP contract with one
  // reconciling recompute whose result is bitwise-identical (single thread)
  // to a fresh InitialCompute on the current graph.
  static constexpr bool kAsyncEligible = Algo::kKind == AggregationKind::kDecomposable;

  bool async_mode() const { return async_mode_; }

  // Monotone-ish convergence residual: total pending |value change| over
  // vertices whose aggregate moved since their last propagation. Zero means
  // the async values are the fixed point of the current graph.
  double AsyncResidual() const { return async_residual_; }

  // Switches to async mode from the current BSP values: rebuilds the live
  // aggregation array from scratch and activates every vertex that is off
  // its fixed point (a truncated BSP run leaves a nonzero residual).
  void EnterAsyncMode()
    requires(kAsyncEligible)
  {
    if (async_mode_) {
      return;
    }
    const VertexId n = graph_->num_vertices();
    ResetContexts();
    prop_values_ = values_;
    aggregates_.assign(n, algo_.IdentityAggregate());
    async_active_.Resize(n);
    ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
      uint64_t scratch_edges = 0;
      for (size_t vi = lo; vi < hi; ++vi) {
        const VertexId v = static_cast<VertexId>(vi);
        aggregates_[v] = DeltaKernel<Algo>::PullAggregate(algo_, *graph_, contexts_, v,
                                                          prop_values_, &scratch_edges);
      }
    }, /*grain=*/64);
    async_mode_ = true;
    async_residual_ = ComputeAsyncResidual();
  }

  // Applies a mutation batch while in async mode: splices the graph, then
  // patches the live aggregation array in place — direct edge impact at old
  // contexts, then a context-shift pass over every endpoint whose context
  // changed — so the invariant above holds on the new graph without any
  // barrier. Affected vertices are activated; deltas flow on the next
  // AsyncStep. Stats lifecycle matches ApplyMutations.
  AppliedMutations AsyncApplyMutations(const MutationBatch& batch)
    requires(kAsyncEligible)
  {
    GB_CHECK(async_mode_) << "AsyncApplyMutations outside async mode";
    SchedulerCounterScope scheduler(&stats_);
    Timer mutation_timer;
    AppliedMutations applied = graph_->ApplyBatch(batch);
    const double mutation_seconds = mutation_timer.Seconds();
    Timer timer;
    stats_.Clear();
    stats_.mutation_seconds = mutation_seconds;
    if (applied.Empty()) {
      stats_.seconds = timer.Seconds();
      return applied;
    }

    const VertexId n = graph_->num_vertices();
    const VertexId old_n = static_cast<VertexId>(prop_values_.size());
    std::vector<VertexContext> old_contexts = std::move(contexts_);
    old_contexts.resize(n);  // new vertices: empty old context
    contexts_ = ComputeVertexContexts(*graph_);
    values_.resize(n, Value{});
    prop_values_.resize(n, Value{});
    aggregates_.resize(n, algo_.IdentityAggregate());
    async_active_.Grow(n);
    for (VertexId v = old_n; v < n; ++v) {
      const Value init = algo_.VertexCompute(v, algo_.IdentityAggregate(), contexts_[v]);
      values_[v] = init;
      prop_values_[v] = init;
      async_active_.Set(v);
    }

    // Endpoints whose context changed: their contribution along every
    // out-edge moves even though their propagated value did not.
    AtomicBitset ctx_changed_bits(n);
    std::vector<VertexId> ctx_changed;
    auto note_endpoint = [&](VertexId v) {
      if (!(old_contexts[v] == contexts_[v]) && ctx_changed_bits.Set(v)) {
        ctx_changed.push_back(v);
      }
    };
    for (const Edge& e : applied.added) {
      note_endpoint(e.src);
      note_endpoint(e.dst);
    }
    for (const Edge& e : applied.deleted) {
      note_endpoint(e.src);
      note_endpoint(e.dst);
    }

    // Direct impact at old contexts: aggregates_ currently hold prop-value
    // contributions at old contexts over the old edge set, so adding /
    // retracting the mutated edges' old-context contributions moves the sum
    // to the new edge set (still at old contexts).
    for (const Edge& e : applied.added) {
      algo_.AggregateAtomic(&aggregates_[e.dst],
                            algo_.ContributionOf(e.src, prop_values_[e.src], e.weight,
                                                 old_contexts[e.src]));
      async_active_.Set(e.dst);
    }
    for (const Edge& e : applied.deleted) {
      algo_.RetractAtomic(&aggregates_[e.dst],
                          algo_.ContributionOf(e.src, prop_values_[e.src], e.weight,
                                               old_contexts[e.src]));
      async_active_.Set(e.dst);
    }
    stats_.edges_processed += applied.added.size() + applied.deleted.size();

    // Context shift: retract old-context / aggregate new-context along the
    // *current* out-edges of every context-changed endpoint, telescoping the
    // sum to new contexts over the new edge set.
    std::atomic<uint64_t> edges{0};
    ParallelForChunks(0, ctx_changed.size(), [&](size_t lo, size_t hi) {
      uint64_t local_edges = 0;
      for (size_t i = lo; i < hi; ++i) {
        const VertexId u = ctx_changed[i];
        const auto out_nbrs = graph_->OutNeighbors(u);
        const auto out_wts = graph_->OutWeights(u);
        for (size_t e = 0; e < out_nbrs.size(); ++e) {
          DeltaKernel<Algo>::PushChange(algo_, options_.use_retract_propagate, u,
                                        prop_values_[u], prop_values_[u], out_wts[e],
                                        old_contexts[u], contexts_[u],
                                        &aggregates_[out_nbrs[e]]);
          async_active_.Set(out_nbrs[e]);
        }
        local_edges += out_nbrs.size();
        async_active_.Set(u);
      }
      edges.fetch_add(local_edges, std::memory_order_relaxed);
    }, /*grain=*/16);
    stats_.edges_processed += edges.load();

    async_residual_ = ComputeAsyncResidual();
    stats_.seconds = timer.Seconds();
    return applied;
  }

  // One bounded round of asynchronous delta propagation: selects up to
  // `budget` active vertices with the largest pending residual (budget 0
  // means unbounded), propagates their deltas along out-edges in
  // priority-ordered chunks (TaskArena's priority lane drains high-impact
  // work first), then recomputes the global residual. Returns the residual.
  // Deliberately does not touch stats_ — the driver owns async accounting
  // across steps, and engine stats are merged per-apply.
  double AsyncStep(size_t budget)
    requires(kAsyncEligible)
  {
    GB_CHECK(async_mode_) << "AsyncStep outside async mode";
    const VertexId n = graph_->num_vertices();
    if (budget == 0) {
      budget = n;
    }
    struct Candidate {
      double mag;
      VertexId v;
    };
    std::vector<Candidate> cands;
    {
      std::mutex merge;
      ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
        std::vector<Candidate> local;
        for (size_t vi = lo; vi < hi; ++vi) {
          const VertexId v = static_cast<VertexId>(vi);
          if (!async_active_.Test(v)) {
            continue;
          }
          const Value next = algo_.VertexCompute(v, aggregates_[v], contexts_[v]);
          if (!algo_.ValuesDiffer(prop_values_[v], next)) {
            async_active_.Clear(v);
            continue;
          }
          local.push_back({ResidualMagnitude(prop_values_[v], next), v});
        }
        if (!local.empty()) {
          std::lock_guard<std::mutex> lock(merge);
          cands.insert(cands.end(), local.begin(), local.end());
        }
      }, /*grain=*/512);
    }
    if (cands.empty()) {
      async_residual_ = 0.0;
      return 0.0;
    }
    auto by_mag_desc = [](const Candidate& a, const Candidate& b) { return a.mag > b.mag; };
    if (cands.size() > budget) {
      std::nth_element(cands.begin(), cands.begin() + static_cast<ptrdiff_t>(budget),
                       cands.end(), by_mag_desc);
      cands.resize(budget);
    }
    std::sort(cands.begin(), cands.end(), by_mag_desc);

    constexpr size_t kChunk = 64;
    {
      TaskGroup group;
      for (size_t lo = 0; lo < cands.size(); lo += kChunk) {
        const size_t hi = std::min(cands.size(), lo + kChunk);
        group.RunPriority(cands[lo].mag, [this, &cands, lo, hi] {
          for (size_t i = lo; i < hi; ++i) {
            PropagateOne(cands[i].v);
          }
        });
      }
      group.Wait();
    }
    async_residual_ = ComputeAsyncResidual();
    return async_residual_;
  }

  // Leaves async mode with one reconciling barrier: recomputes values and
  // the dependency store from scratch, so the post-reconcile state is
  // bitwise-identical (single thread) to a fresh InitialCompute on the
  // current graph — the deterministic-recovery contract the BSP mode makes.
  void ExitAsyncReconcile()
    requires(kAsyncEligible)
  {
    if (!async_mode_) {
      return;
    }
    async_mode_ = false;
    async_residual_ = 0.0;
    prop_values_.clear();
    prop_values_.shrink_to_fit();
    async_active_.Resize(0);
    InitialCompute();
  }

 private:
  static constexpr bool kPullBased = Algo::kKind == AggregationKind::kNonDecomposable;
  static constexpr uint64_t kStateMagic = 0x47424f4c54535431ULL;  // "GBOLTST1"

  // Bitwise equality — the fast path's safety contract is stated in bits,
  // not tolerances, so recovery replay stays exact.
  template <typename T>
  static bool SameBits(const T& a, const T& b) {
    static_assert(std::is_trivially_copyable_v<T>);
    return std::memcmp(&a, &b, sizeof(T)) == 0;
  }

  // Whether an input of contribution `c` may carry part of the aggregate
  // `agg`, so that deleting or worsening it could move `agg`. An identity
  // input never does (a pull starts from the identity). A selective ⊕
  // (min/max) returns one of its operands, so only an input equal to `agg`
  // attains it; any other ⊕ (bitwise OR) may owe it to every input.
  bool MayAttain(const Aggregate& c, const Aggregate& agg) const {
    if (SameBits(c, algo_.IdentityAggregate())) {
      return false;
    }
    if constexpr (IsSelectiveAggregation<Algo>()) {
      return SameBits(c, agg);
    } else {
      return true;
    }
  }

  // Whether `next` is at least as good as `prev` under ⊕ (prev ⊕ next is
  // next): replacing input prev by next cannot lose any part of an
  // aggregate.
  bool Dominates(const Aggregate& next, const Aggregate& prev) const {
    Aggregate probe = prev;
    algo_.AggregateAtomic(&probe, next);
    return SameBits(probe, next);
  }

  // Monotonic non-decomposable levels can refine selectively (fold, mark,
  // re-pull the marked; see RefineLevel). The attain test compares
  // contributions with aggregates, so both must be one type.
  static constexpr bool kSelectiveCapable =
      kPullBased && IsMonotonicAggregation<Algo>() &&
      std::is_same_v<typename Algo::Contribution, Aggregate>;

  struct FrontierEntry {
    VertexId v;
    Value old_value;  // value in the pre-mutation run
    Value new_value;  // value in the refined run
  };

  // Epoch-stamped per-level scratch recording the old and new values of
  // every vertex touched while refining one level. Two instances alternate
  // between consecutive levels, giving O(1) old/new value lookups without
  // hashing. They live across batches: a new epoch forgets a level in O(1).
  struct LevelScratch {
    std::vector<Value> old_values;
    std::vector<Value> new_values;
    std::vector<uint32_t> stamps;
    uint32_t epoch = 0;

    void Prepare(VertexId n) {
      if (stamps.size() < n) {
        stamps.resize(n, 0);
        old_values.resize(n);
        new_values.resize(n);
      }
      if (++epoch == 0) {  // wrapped: no stale stamp may match
        std::fill(stamps.begin(), stamps.end(), 0u);
        epoch = 1;
      }
    }
    bool Has(VertexId v) const { return stamps[v] == epoch; }
    void Record(VertexId v, const Value& old_value) {
      stamps[v] = epoch;
      old_values[v] = old_value;
      new_values[v] = old_value;
    }
  };

  // ----- Initial (tracked) computation -------------------------------------

  // Iteration 1: full pull pass over every vertex. Returns the changed set
  // carrying pre-change values, and snapshots level 1.
  std::vector<std::pair<VertexId, Value>> FirstIteration() {
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
    return CommitIteration(VertexSubset::All(n));
  }

  // Iterations >= 2: selective delta processing (push) or selective pull
  // re-evaluation for non-decomposable aggregations. Snapshots the level.
  std::vector<std::pair<VertexId, Value>> TrackedIteration(
      const std::vector<std::pair<VertexId, Value>>& frontier) {
    const VertexId n = graph_->num_vertices();
    FrontierBuilder touched(n);
    std::atomic<uint64_t> edges{0};

    if constexpr (kPullBased) {
      ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          for (const VertexId w : graph_->OutNeighbors(frontier[i].first)) {
            touched.Claim(w);
          }
        }
      }, /*grain=*/64);
      // TakeAuto: a dense target set comes back as its bitset alone and is
      // swept below (and in CommitIteration) without ever packing the
      // sparse member vector. Both walks ascend, so the single-threaded
      // visit order — and the committed values — are identical either way.
      VertexSubset targets = touched.TakeAuto();
      if (targets.dense_only()) {
        const AtomicBitset& bits = targets.Dense();
        ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
          uint64_t local_edges = 0;
          for (size_t vi = lo; vi < hi; ++vi) {
            const VertexId v = static_cast<VertexId>(vi);
            if (bits.Test(v)) {
              aggregates_[v] = PullAggregate(v, values_, &local_edges);
            }
          }
          edges.fetch_add(local_edges, std::memory_order_relaxed);
        }, /*grain=*/512);
      } else {
        ParallelForChunks(0, targets.size(), [&](size_t lo, size_t hi) {
          uint64_t local_edges = 0;
          for (size_t i = lo; i < hi; ++i) {
            const VertexId v = targets.members()[i];
            aggregates_[v] = PullAggregate(v, values_, &local_edges);
          }
          edges.fetch_add(local_edges, std::memory_order_relaxed);
        }, /*grain=*/64);
      }
      stats_.edges_processed += edges.load();
      return CommitIteration(targets);
    } else {
      ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
        uint64_t local_edges = 0;
        for (size_t i = lo; i < hi; ++i) {
          const auto& [u, old_value] = frontier[i];
          const auto out_nbrs = graph_->OutNeighbors(u);
          const auto out_wts = graph_->OutWeights(u);
          for (size_t e = 0; e < out_nbrs.size(); ++e) {
            const VertexId w = out_nbrs[e];
            PushChange(u, old_value, values_[u], out_wts[e], contexts_[u], contexts_[u],
                       &aggregates_[w]);
            touched.Claim(w);
          }
          local_edges += out_nbrs.size();
        }
        edges.fetch_add(local_edges, std::memory_order_relaxed);
      }, /*grain=*/64);
      stats_.edges_processed += edges.load();
      return CommitIteration(touched.TakeAuto());
    }
  }

  // Computes new values for `targets`, snapshots the level (aggregates +
  // changed bits), and returns the changed set.
  std::vector<std::pair<VertexId, Value>> CommitIteration(const VertexSubset& targets) {
    const VertexId n = graph_->num_vertices();
    AtomicBitset changed_bits(n);
    std::vector<std::pair<VertexId, Value>> changed;
    std::mutex merge;
    const auto commit_one = [&](VertexId v, std::vector<std::pair<VertexId, Value>>* local) {
      const Value next = algo_.VertexCompute(v, aggregates_[v], contexts_[v]);
      if (algo_.ValuesDiffer(values_[v], next)) {
        changed_bits.Set(v);
        local->emplace_back(v, values_[v]);
        values_[v] = next;
      }
    };
    if (targets.dense_only()) {
      // Fused-dense targets (TakeAuto): sweep the bitset instead of
      // forcing the sparse pack. Ascending like the member walk, so a
      // single-threaded commit is bitwise-identical.
      const AtomicBitset& bits = targets.Dense();
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
      ParallelForChunks(0, targets.size(), [&](size_t lo, size_t hi) {
        std::vector<std::pair<VertexId, Value>> local;
        for (size_t i = lo; i < hi; ++i) {
          commit_one(targets.members()[i], &local);
        }
        std::lock_guard<std::mutex> lock(merge);
        changed.insert(changed.end(), local.begin(), local.end());
      }, /*grain=*/256);
    }
    store_.SnapshotLevel(store_.total_levels() + 1, aggregates_, std::move(changed_bits));
    return changed;
  }

  // ----- Refinement ---------------------------------------------------------

  // Applies one change (retract old / aggregate new, or a combined delta) to
  // a target aggregation cell. Shared with the async mode via DeltaKernel.
  void PushChange(VertexId u, const Value& old_value, const Value& new_value, Weight w,
                  const VertexContext& old_ctx, const VertexContext& new_ctx, Aggregate* agg) {
    DeltaKernel<Algo>::PushChange(algo_, options_.use_retract_propagate, u, old_value,
                                  new_value, w, old_ctx, new_ctx, agg);
  }

  // Re-evaluates g(v) by pulling the full in-neighborhood with `vals`.
  Aggregate PullAggregate(VertexId v, const std::vector<Value>& vals, uint64_t* edge_counter) {
    return DeltaKernel<Algo>::PullAggregate(algo_, *graph_, contexts_, v, vals, edge_counter);
  }

  // c_{level}(v) in the *pre-mutation* run. `prev` holds snapshotted old
  // values of vertices refined at `level`; untouched vertices still hold
  // their old aggregation in the store.
  Value OldValueAt(uint32_t level, VertexId v, const std::vector<VertexContext>& old_contexts,
                   const LevelScratch& prev) const {
    if (level == 0) {
      return algo_.InitialValue(v, old_contexts[v]);
    }
    if (prev.Has(v)) {
      return prev.old_values[v];
    }
    return algo_.VertexCompute(v, store_.At(level, v), old_contexts[v]);
  }

  // c^T_{level}(v) in the refined run; valid once level has been refined.
  Value NewValueAt(uint32_t level, VertexId v) const {
    if (level == 0) {
      return algo_.InitialValue(v, contexts_[v]);
    }
    return algo_.VertexCompute(v, store_.At(level, v), contexts_[v]);
  }

  // Fast path reading the scratch of `level` when v was touched there.
  Value NewValueAt(uint32_t level, VertexId v, const LevelScratch& scratch) const {
    if (level >= 1 && scratch.Has(v)) {
      return scratch.new_values[v];
    }
    return NewValueAt(level, v);
  }

  void Refine(const AppliedMutations& applied) {
    const VertexId n = graph_->num_vertices();
    const VertexId old_n = store_.num_vertices();
    // The contexts the stored run was computed with, still stale at
    // fast-path splice endpoints: an O(V) copy held for this batch only
    // (persistent, it would raise peak memory), not an O(V+E) recompute.
    std::vector<VertexContext> old_contexts = contexts_;
    old_contexts.resize(n);  // new vertices: empty old context
    // Contributors whose context changed: their contribution along every
    // out-edge changes even if their value does not.
    const std::vector<VertexId> ctx_changed = RefreshContexts(applied, old_contexts);
    store_.GrowVertices(n, algo_.IdentityAggregate());
    values_.resize(n, Value{});
    // New vertices behave as if they had existed isolated all along; the
    // value of an isolated vertex is constant from iteration 1 onward.
    for (VertexId v = old_n; v < n; ++v) {
      values_[v] = algo_.VertexCompute(v, algo_.IdentityAggregate(), contexts_[v]);
    }

    const uint32_t tracked = store_.tracked_levels();
    const uint32_t orig_total = store_.total_levels();

    // Level-0 frontier: only context-changed vertices can differ. The
    // level-0 scratch records it too (value lookups at level 0 never consult
    // a scratch), so at every level each frontier entry's old/new values are
    // its record in the previous level's scratch.
    std::vector<FrontierEntry> frontier;
    scratch_[0].Prepare(n);
    for (const VertexId v : ctx_changed) {
      scratch_[0].Record(v, algo_.InitialValue(v, old_contexts[v]));
      scratch_[0].new_values[v] = algo_.InitialValue(v, contexts_[v]);
      frontier.push_back({v, scratch_[0].old_values[v], scratch_[0].new_values[v]});
    }
    for (uint32_t level = 1; level <= tracked; ++level) {
      frontier = RefineLevel(level, applied, frontier, ctx_changed, old_contexts,
                             scratch_[(level - 1) & 1], &scratch_[level & 1]);
      ++stats_.iterations;
    }
    // Give the storage backend a chance to drop suffixes that refinement
    // re-expanded but that ended up stable again (no-op for the dense store).
    store_.RepruneTails(VertexSubset::All(n));

    // Decide whether the computation must continue past the refined levels:
    // untracked original iterations remain, or (in convergence mode) the
    // refined run is still changing at the last refined level.
    const bool more_levels = tracked < orig_total;
    const bool still_changing =
        options_.run_to_convergence && tracked >= 1 && store_.ChangedAt(tracked).Count() > 0;
    if (more_levels || still_changing) {
      ContinueBeyondHistory(tracked, orig_total);
    } else {
      for (const FrontierEntry& entry : frontier) {
        values_[entry.v] = entry.new_value;
      }
    }
  }

  // Recomputes every context from the graph (O(V+E)) and drops the record
  // of fast-path splices, whose contexts this refreshes too.
  void ResetContexts() {
    contexts_ = ComputeVertexContexts(*graph_);
    stale_contexts_.clear();
  }

  // Brings contexts_ up to date after a batch by recomputing only the
  // vertices whose adjacency changed: the applied edges' endpoints, plus the
  // fast-path splice endpoints recorded since the last Refine. Returns the
  // applied endpoints whose context differs from `old_contexts`, ascending.
  // Splice endpoints are refreshed but not returned: a safe splice cannot
  // move a contribution.
  std::vector<VertexId> RefreshContexts(const AppliedMutations& applied,
                                        const std::vector<VertexContext>& old_contexts) {
    contexts_.resize(graph_->num_vertices());  // new vertices: empty until refreshed
    std::vector<VertexId> endpoints;
    endpoints.reserve(2 * (applied.added.size() + applied.deleted.size()));
    for (const Edge& e : applied.added) {
      endpoints.push_back(e.src);
      endpoints.push_back(e.dst);
    }
    for (const Edge& e : applied.deleted) {
      endpoints.push_back(e.src);
      endpoints.push_back(e.dst);
    }
    SortUnique(&endpoints);
    std::vector<VertexId> refreshed = endpoints;
    if (!stale_contexts_.empty()) {
      refreshed.insert(refreshed.end(), stale_contexts_.begin(), stale_contexts_.end());
      stale_contexts_.clear();
      SortUnique(&refreshed);
    }
    ParallelFor(0, refreshed.size(), [&](size_t i) {
      contexts_[refreshed[i]] = ComputeVertexContext(*graph_, refreshed[i]);
    }, /*grain=*/64);
    std::erase_if(endpoints, [&](VertexId v) { return old_contexts[v] == contexts_[v]; });
    return endpoints;
  }

  static void SortUnique(std::vector<VertexId>* ids) {
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  }

  // Ligra's direction test: the frontier's out-edges exceed
  // |E| / kDenseFrontierDenominator. Only decomposable levels pull.
  bool PullsLevel(const std::vector<FrontierEntry>& frontier) const {
    if constexpr (Algo::kKind != AggregationKind::kDecomposable) {
      return false;
    } else {
      const uint64_t frontier_edges = ParallelReduceSum<uint64_t>(
          0, frontier.size(),
          [&](size_t i) { return static_cast<uint64_t>(graph_->OutDegree(frontier[i].v)); });
      return frontier_edges > graph_->num_edges() / kDenseFrontierDenominator;
    }
  }

  // Refines one tracked level; returns the next frontier (changed values and
  // context-changed contributors). `prev` is the scratch filled while
  // refining level-1; `cur` receives this level's touched old/new values.
  std::vector<FrontierEntry> RefineLevel(uint32_t level, const AppliedMutations& applied,
                                         const std::vector<FrontierEntry>& frontier,
                                         const std::vector<VertexId>& ctx_changed,
                                         const std::vector<VertexContext>& old_contexts,
                                         const LevelScratch& prev, LevelScratch* cur) {
    const VertexId n = graph_->num_vertices();
    std::atomic<uint64_t> edges{0};
    cur->Prepare(n);

    // 1-2. Targets of this level (direct mutation targets plus out-neighbors
    //      of the previous level's changed contributors), their aggregations
    //      in `agg`, and their old values in `cur`. A dense decomposable
    //      level also folds in its transitive impact (step 4) as it goes.
    const bool pull = PullsLevel(frontier);
    VertexSubset targets = pull ? PullTargets(level, applied, frontier, old_contexts, prev, cur)
                                : ClaimTargets(level, applied, frontier, old_contexts, cur);
    std::vector<Aggregate>& agg = aggregates_;

    if constexpr (kPullBased) {
      // 3a. Non-decomposable: a monotonic ⊕ folds the improved inputs into
      //     the stored aggregates and marks only the targets that lost an
      //     attaining input (FoldAndMark); forced full re-evaluation, or a
      //     non-monotonic ⊕, marks every target. Marked targets are
      //     re-evaluated from their full new in-neighborhood using refined
      //     level-1 values.
      bool pull_all = true;
      if constexpr (kSelectiveCapable) {
        if (!options_.disable_monotonic_push) {
          FoldAndMark(level, applied, frontier, old_contexts, prev, &edges);
          pull_all = false;
        }
      }
      ParallelForChunks(0, targets.size(), [&](size_t lo, size_t hi) {
        uint64_t local_edges = 0;
        for (size_t i = lo; i < hi; ++i) {
          const VertexId v = targets.members()[i];
          if (!pull_all) {
            if (!repull_.Test(v)) {
              continue;
            }
            repull_.Clear(v);
          }
          Aggregate fresh = algo_.IdentityAggregate();
          const auto in_nbrs = graph_->InNeighbors(v);
          const auto in_wts = graph_->InWeights(v);
          for (size_t e = 0; e < in_nbrs.size(); ++e) {
            const VertexId u = in_nbrs[e];
            algo_.AggregateAtomic(
                &fresh, algo_.ContributionOf(u, NewValueAt(level - 1, u, prev), in_wts[e],
                                             contexts_[u]));
          }
          local_edges += in_nbrs.size();
          agg[v] = fresh;
        }
        edges.fetch_add(local_edges, std::memory_order_relaxed);
      }, /*grain=*/64);
    } else {
      // 3b. Direct impact: ⊎ new edges' old contributions, ⋃- deleted ones.
      for (const Edge& e : applied.added) {
        const Value old_src = OldValueAt(level - 1, e.src, old_contexts, prev);
        algo_.AggregateAtomic(&agg[e.dst],
                              algo_.ContributionOf(e.src, old_src, e.weight, old_contexts[e.src]));
      }
      for (const Edge& e : applied.deleted) {
        const Value old_src = OldValueAt(level - 1, e.src, old_contexts, prev);
        algo_.RetractAtomic(&agg[e.dst],
                            algo_.ContributionOf(e.src, old_src, e.weight, old_contexts[e.src]));
      }
      stats_.edges_processed += applied.added.size() + applied.deleted.size();

      // 4. Transitive impact: ⋃△ over out-edges (in E^T) of every changed
      // contributor — already summed in on a pull level.
      if (!pull) {
        ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
          uint64_t local_edges = 0;
          for (size_t i = lo; i < hi; ++i) {
            const FrontierEntry& entry = frontier[i];
            const auto out_nbrs = graph_->OutNeighbors(entry.v);
            const auto out_wts = graph_->OutWeights(entry.v);
            for (size_t e = 0; e < out_nbrs.size(); ++e) {
              PushChange(entry.v, entry.old_value, entry.new_value, out_wts[e],
                         old_contexts[entry.v], contexts_[entry.v], &agg[out_nbrs[e]]);
            }
            local_edges += out_nbrs.size();
          }
          edges.fetch_add(local_edges, std::memory_order_relaxed);
        }, /*grain=*/64);
      }
    }
    stats_.edges_processed += edges.load();

    // 5. Recompute target values, update changed bits, build next frontier.
    if (in_next_.size() < n) {
      in_next_.Resize(n);
    } else {
      in_next_.ClearAll();
    }
    std::vector<FrontierEntry> next;
    std::mutex merge;
    AtomicBitset& changed_bits = store_.MutableChangedAt(level);
    ParallelForChunks(0, targets.size(), [&](size_t lo, size_t hi) {
      std::vector<FrontierEntry> local;
      for (size_t i = lo; i < hi; ++i) {
        const VertexId v = targets.members()[i];
        const Value new_val = algo_.VertexCompute(v, agg[v], contexts_[v]);
        cur->new_values[v] = new_val;
        const Value prev_new = NewValueAt(level - 1, v, prev);
        if (algo_.ValuesDiffer(prev_new, new_val)) {
          changed_bits.Set(v);
        } else {
          changed_bits.Clear(v);
        }
        if (algo_.ValuesDiffer(cur->old_values[v], new_val)) {
          in_next_.Set(v);
          local.push_back({v, cur->old_values[v], new_val});
        }
      }
      std::lock_guard<std::mutex> lock(merge);
      next.insert(next.end(), local.begin(), local.end());
    }, /*grain=*/256);

    // A vertex that changed at the previous level but is not a target here
    // keeps its aggregation (and hence its value at this level), yet its
    // changed bit must be refreshed: the bit compares against its *new*
    // previous-level value. Until the loop below, `cur` holds exactly the
    // targets.
    for (const FrontierEntry& entry : frontier) {
      if (cur->Has(entry.v)) {
        continue;
      }
      // Not a target: its aggregation was not materialized; read the store.
      const Value here = algo_.VertexCompute(entry.v, store_.At(level, entry.v), contexts_[entry.v]);
      if (algo_.ValuesDiffer(entry.new_value, here)) {
        changed_bits.Set(entry.v);
      } else {
        changed_bits.Clear(entry.v);
      }
    }

    // Context-changed contributors stay in the frontier at every level even
    // when their value is unchanged.
    for (const VertexId v : ctx_changed) {
      if (in_next_.Test(v)) {
        continue;
      }
      if (cur->Has(v)) {
        next.push_back({v, cur->old_values[v], cur->new_values[v]});
      } else {
        const Aggregate& untouched = store_.At(level, v);
        const Value old_val = algo_.VertexCompute(v, untouched, old_contexts[v]);
        cur->Record(v, old_val);
        cur->new_values[v] = algo_.VertexCompute(v, untouched, contexts_[v]);
        next.push_back({v, old_val, cur->new_values[v]});
      }
    }

    store_.CommitLevel(level, targets, agg);
    return next;
  }

  // Steps 1 and 2 of a level that does not pull (sparse, or not
  // decomposable): claims the targets through an atomic bitset, packs them,
  // materializes their aggregations from the store, and records their old
  // values in `cur`.
  VertexSubset ClaimTargets(uint32_t level, const AppliedMutations& applied,
                            const std::vector<FrontierEntry>& frontier,
                            const std::vector<VertexContext>& old_contexts, LevelScratch* cur) {
    FrontierBuilder touched(graph_->num_vertices());
    for (const Edge& e : applied.added) {
      touched.Claim(e.dst);
    }
    for (const Edge& e : applied.deleted) {
      touched.Claim(e.dst);
    }
    ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        for (const VertexId w : graph_->OutNeighbors(frontier[i].v)) {
          touched.Claim(w);
        }
      }
    }, /*grain=*/64);
    VertexSubset targets = touched.Take();

    // Materialize the targets' aggregations into a dense scratch the
    // mutation passes operate on; every write below lands on a target, so
    // committing the targets back is a complete update of the level.
    store_.MaterializeLevel(level, targets, &aggregates_);

    // Snapshot old values of targets before mutating this level.
    ParallelFor(0, targets.size(), [&](size_t i) {
      const VertexId v = targets.members()[i];
      cur->Record(v, algo_.VertexCompute(v, aggregates_[v], old_contexts[v]));
    }, /*grain=*/256);
    return targets;
  }

  // The fold and mark steps of a selective non-decomposable level (the
  // per-level dependency trimming of KickStarter; RisGraph's safe/unsafe
  // split). `aggregates_` holds the targets' old aggregates, as
  // ClaimTargets materialized them.
  //  - Fold: every frontier out-edge and every added edge folds its new
  //    contribution into its target with ⊕. For a monotonic ⊕ that alone
  //    gives the new aggregate unless an input was lost: the aggregate
  //    absorbs improved inputs, and a worse input that did not attain the
  //    old aggregate never mattered.
  //  - Mark: a target whose input was deleted, or got worse (the new
  //    contribution does not dominate the old), while the old contribution
  //    attained the old aggregate (MayAttain) is set in `repull_` for a full
  //    pull, which discards the fold.
  // A frontier out-edge that the batch added is also judged as a changed
  // input; at worst that marks a target the pull did not need.
  void FoldAndMark(uint32_t level, const AppliedMutations& applied,
                   const std::vector<FrontierEntry>& frontier,
                   const std::vector<VertexContext>& old_contexts, const LevelScratch& prev,
                   std::atomic<uint64_t>* edges) {
    const VertexId n = graph_->num_vertices();
    if (repull_.size() < n) {
      repull_.Resize(n);  // all clear: each level's pull clears its marks
    }
    std::vector<Aggregate>& agg = aggregates_;
    for (const Edge& e : applied.added) {
      algo_.AggregateAtomic(&agg[e.dst],
                            algo_.ContributionOf(e.src, NewValueAt(level - 1, e.src, prev),
                                                 e.weight, contexts_[e.src]));
    }
    for (const Edge& e : applied.deleted) {
      const Aggregate old_c =
          algo_.ContributionOf(e.src, OldValueAt(level - 1, e.src, old_contexts, prev), e.weight,
                               old_contexts[e.src]);
      if (MayAttain(old_c, store_.At(level, e.dst))) {
        repull_.Set(e.dst);
      }
    }
    stats_.edges_processed += applied.added.size() + applied.deleted.size();
    ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
      uint64_t local_edges = 0;
      for (size_t i = lo; i < hi; ++i) {
        const FrontierEntry& entry = frontier[i];
        const auto out_nbrs = graph_->OutNeighbors(entry.v);
        const auto out_wts = graph_->OutWeights(entry.v);
        for (size_t e = 0; e < out_nbrs.size(); ++e) {
          const VertexId w = out_nbrs[e];
          const Aggregate new_c =
              algo_.ContributionOf(entry.v, entry.new_value, out_wts[e], contexts_[entry.v]);
          algo_.AggregateAtomic(&agg[w], new_c);
          const Aggregate old_c = algo_.ContributionOf(entry.v, entry.old_value, out_wts[e],
                                                       old_contexts[entry.v]);
          if (!Dominates(new_c, old_c) && MayAttain(old_c, store_.At(level, w))) {
            repull_.Set(w);
          }
        }
        local_edges += out_nbrs.size();
      }
      edges->fetch_add(local_edges, std::memory_order_relaxed);
    }, /*grain=*/64);
  }

  // Steps 1, 2 and 4 of a dense decomposable level in the pull direction
  // (Ligra's dense edgeMap): one pass over every vertex's in-edges. A vertex
  // is a target iff it is a direct mutation target or has a frontier
  // in-neighbor. Its ⋃△ is summed into a private accumulator seeded with its
  // stored aggregation and written to its own cell once, so the level takes
  // no claims and no contended atomics, and its sums have a fixed order. Only
  // in-edges from frontier members are evaluated — exactly the frontier's
  // out-edges — so edges_processed matches the push direction. A frontier
  // member's old/new values are read from `prev`, its per-vertex record (see
  // Refine). Records the targets' old values in `cur` and returns them
  // packed.
  VertexSubset PullTargets(uint32_t level, const AppliedMutations& applied,
                           const std::vector<FrontierEntry>& frontier,
                           const std::vector<VertexContext>& old_contexts,
                           const LevelScratch& prev, LevelScratch* cur) {
    const VertexId n = graph_->num_vertices();
    if (in_frontier_.size() < n) {
      in_frontier_.Resize(n);
    }
    ParallelFor(0, frontier.size(), [&](size_t i) { in_frontier_.Set(frontier[i].v); },
                /*grain=*/256);
    // Direct targets are recorded first so the pass below keeps them.
    const auto record_direct = [&](const Edge& e) {
      if (!cur->Has(e.dst)) {
        cur->Record(e.dst,
                    algo_.VertexCompute(e.dst, store_.At(level, e.dst), old_contexts[e.dst]));
      }
    };
    std::for_each(applied.added.begin(), applied.added.end(), record_direct);
    std::for_each(applied.deleted.begin(), applied.deleted.end(), record_direct);

    if (aggregates_.size() < n) {
      aggregates_.resize(n);
    }
    std::vector<Aggregate>& agg = aggregates_;
    std::atomic<uint64_t> edges{0};
    ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
      uint64_t local_edges = 0;
      for (size_t vi = lo; vi < hi; ++vi) {
        const VertexId v = static_cast<VertexId>(vi);
        const auto in_nbrs = graph_->InNeighbors(v);
        size_t e = 0;
        while (e < in_nbrs.size() && !in_frontier_.Test(in_nbrs[e])) {
          ++e;
        }
        const bool direct = cur->Has(v);
        if (e == in_nbrs.size() && !direct) {
          continue;  // not a target this level
        }
        Aggregate acc = store_.At(level, v);
        if (!direct) {
          cur->Record(v, algo_.VertexCompute(v, acc, old_contexts[v]));
        }
        const auto in_wts = graph_->InWeights(v);
        for (; e < in_nbrs.size(); ++e) {
          const VertexId u = in_nbrs[e];
          if (in_frontier_.Test(u)) {
            DeltaKernel<Algo>::PullChange(algo_, options_.use_retract_propagate, u,
                                          prev.old_values[u], prev.new_values[u], in_wts[e],
                                          old_contexts[u], contexts_[u], &acc);
            ++local_edges;
          }
        }
        agg[v] = acc;
      }
      edges.fetch_add(local_edges, std::memory_order_relaxed);
    }, /*grain=*/128);
    stats_.edges_processed += edges.load();
    in_frontier_.ClearAll();
    return VertexSubset::FromSorted(n, PackIds(n, [cur](VertexId v) { return cur->Has(v); }));
  }

  // ----- Hybrid continuation ------------------------------------------------

  // Computation-aware hybrid execution past the refined history: selective
  // pull-recomputation seeded by the changed-bit vectors.
  //
  // When every original level is tracked, the levels the continuation adds
  // are snapshotted whole (aggregates and changed bits), so the store stays
  // what InitialCompute on the new snapshot would build and the next batch
  // refines them instead of continuing again. The working array starts as
  // the last tracked level: a vertex that is not pulled at a level keeps
  // its previous aggregate, exactly as in TrackedIteration. SnapshotLevel
  // drops aggregates past history_size, so horizontal pruning stays the
  // only cap on history.
  void ContinueBeyondHistory(uint32_t from_level, uint32_t orig_total) {
    const VertexId n = graph_->num_vertices();
    const bool snapshot = from_level >= 1 && from_level == orig_total &&
                          from_level < store_.history_size();
    if (snapshot) {
      store_.MaterializeLevel(from_level, VertexSubset::All(n), &aggregates_);
    }

    // Full value array at the entry level.
    std::vector<Value> cur(n);
    ParallelFor(0, n, [&](size_t v) {
      cur[v] = NewValueAt(from_level, static_cast<VertexId>(v));
    }, /*grain=*/512);

    // Frontier: vertices whose refined value changed at the entry level.
    std::vector<VertexId> frontier;
    if (from_level >= 1) {
      const AtomicBitset& bits = store_.ChangedAt(from_level);
      for (VertexId v = 0; v < n; ++v) {
        if (bits.Test(v)) {
          frontier.push_back(v);
        }
      }
    }

    uint32_t level = from_level + 1;
    while (level <= orig_total ||
           (options_.run_to_convergence && !frontier.empty() && level <= options_.max_iterations)) {
      if (!options_.run_to_convergence && level > options_.max_iterations) {
        break;
      }
      FrontierBuilder affected(n);
      ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          for (const VertexId w : graph_->OutNeighbors(frontier[i])) {
            affected.Claim(w);
          }
        }
      }, /*grain=*/64);
      if (level <= orig_total) {
        // Replay the original dynamics: vertices that changed at this level
        // in the pre-mutation run must be recomputed too.
        const AtomicBitset& orig_bits = store_.ChangedAt(level);
        for (VertexId v = 0; v < n; ++v) {
          if (orig_bits.Test(v)) {
            affected.Claim(v);
          }
        }
      }
      VertexSubset targets = affected.Take();

      std::vector<Value> fresh(targets.size());
      std::atomic<uint64_t> edges{0};
      ParallelForChunks(0, targets.size(), [&](size_t lo, size_t hi) {
        uint64_t local_edges = 0;
        for (size_t i = lo; i < hi; ++i) {
          const VertexId v = targets.members()[i];
          const Aggregate agg = PullAggregate(v, cur, &local_edges);
          fresh[i] = algo_.VertexCompute(v, agg, contexts_[v]);
          if (snapshot) {
            aggregates_[v] = agg;
          }
        }
        edges.fetch_add(local_edges, std::memory_order_relaxed);
      }, /*grain=*/64);
      stats_.edges_processed += edges.load();

      // Commit (BSP barrier already passed), update changed bits, and build
      // the next frontier.
      std::vector<VertexId> next;
      if (level <= orig_total) {
        AtomicBitset& bits = store_.MutableChangedAt(level);
        for (size_t i = 0; i < targets.size(); ++i) {
          const VertexId v = targets.members()[i];
          const bool differs = algo_.ValuesDiffer(cur[v], fresh[i]);
          if (differs) {
            bits.Set(v);
            next.push_back(v);
          } else {
            bits.Clear(v);
          }
          cur[v] = fresh[i];
        }
      } else {
        AtomicBitset bits(n);
        for (size_t i = 0; i < targets.size(); ++i) {
          const VertexId v = targets.members()[i];
          if (algo_.ValuesDiffer(cur[v], fresh[i])) {
            bits.Set(v);
            next.push_back(v);
          }
          cur[v] = fresh[i];
        }
        if (snapshot) {
          store_.SnapshotLevel(level, aggregates_, std::move(bits));
        } else {
          store_.AppendChangedBits(std::move(bits));
        }
      }
      frontier = std::move(next);
      ++stats_.iterations;
      ++level;
    }
    values_ = std::move(cur);
  }

  // ----- Async mode internals -----------------------------------------------

  // How far apart two values are, for priority ordering and the residual
  // sum. Arithmetic values use their absolute difference; structured values
  // (label arrays) count 1 per differing vertex.
  static double ResidualMagnitude(const Value& a, const Value& b) {
    if constexpr (std::is_arithmetic_v<Value>) {
      return std::fabs(static_cast<double>(a) - static_cast<double>(b));
    } else {
      return 1.0;
    }
  }

  // Propagates one vertex's pending delta: clears its active bit, pushes
  // (prop -> next) along every out-edge, publishes the new value. Racing
  // pushes into this vertex re-set the bit; the post-step residual scan
  // re-activates anything a relaxed-ordering race slipped past.
  // Copies one aggregate cell with element-wise atomic loads. Concurrent
  // PropagateOne calls CAS into the cell while this vertex reads it, and
  // mixed atomic/plain access to one location is a data race — the copy
  // pairs the read side with PushChange's atomics. Relaxed is enough: a
  // stale element only delays convergence, and the post-step residual
  // scan re-activates anything it left behind.
  static Aggregate LoadAggregateRelaxed(const Aggregate& cell) {
    if constexpr (std::is_arithmetic_v<Aggregate>) {
      return AtomicLoad(&cell);
    } else {
      Aggregate out{};
      for (size_t i = 0; i < cell.size(); ++i) {
        out[i] = AtomicLoad(&cell[i]);
      }
      return out;
    }
  }

  void PropagateOne(VertexId v) {
    async_active_.Clear(v);
    const Value cur = prop_values_[v];
    const Aggregate agg = LoadAggregateRelaxed(aggregates_[v]);
    const Value next = algo_.VertexCompute(v, agg, contexts_[v]);
    if (!algo_.ValuesDiffer(cur, next)) {
      return;
    }
    const auto out_nbrs = graph_->OutNeighbors(v);
    const auto out_wts = graph_->OutWeights(v);
    for (size_t e = 0; e < out_nbrs.size(); ++e) {
      DeltaKernel<Algo>::PushChange(algo_, options_.use_retract_propagate, v, cur, next,
                                    out_wts[e], contexts_[v], contexts_[v],
                                    &aggregates_[out_nbrs[e]]);
      async_active_.Set(out_nbrs[e]);
    }
    prop_values_[v] = next;
    values_[v] = next;
  }

  // Full-scan residual: sums the pending change of every vertex that is off
  // its aggregate, re-activating it (self-healing against lost wakeups from
  // the relaxed clear/push race in PropagateOne). Deterministic reduction
  // tree, so the residual trajectory is reproducible for a fixed schedule.
  double ComputeAsyncResidual() {
    const VertexId n = graph_->num_vertices();
    return ParallelReduceSum<double>(0, n, [&](size_t vi) {
      const VertexId v = static_cast<VertexId>(vi);
      const Value next = algo_.VertexCompute(v, aggregates_[v], contexts_[v]);
      if (!algo_.ValuesDiffer(prop_values_[v], next)) {
        return 0.0;
      }
      async_active_.Set(v);
      return ResidualMagnitude(prop_values_[v], next);
    });
  }

  MutableGraph* graph_;
  Algo algo_;
  Options options_;
  std::vector<VertexContext> contexts_;
  std::vector<Value> values_;
  // Per-vertex aggregations: the live array of the initial run and of async
  // mode, and refinement's working copy of one level (never two at once).
  std::vector<Aggregate> aggregates_;
  // Refinement scratch kept across batches; resized only when V grows.
  LevelScratch scratch_[2];   // old/new values of the two live levels
  AtomicBitset in_next_;      // next-frontier membership of one level
  AtomicBitset in_frontier_;  // frontier membership on a pull level
  AtomicBitset repull_;       // targets of a selective level needing a full pull
  std::vector<VertexId> stale_contexts_;  // fast-path splice endpoints since Refine
  StoreT store_;
  EngineStats stats_;

  // Async-mode state (empty while in BSP mode).
  bool async_mode_ = false;
  std::vector<Value> prop_values_;  // values whose contributions are in aggregates_
  AtomicBitset async_active_;       // aggregate moved since last propagation
  double async_residual_ = 0.0;
};

}  // namespace graphbolt

#endif  // SRC_CORE_GRAPHBOLT_ENGINE_H_
