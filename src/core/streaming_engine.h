// The engine concepts: the unified API surface every processing engine in
// this repository exposes to streaming infrastructure.
//
// Two layers:
//
//   BatchEngine      the compute lifecycle — anything that can be driven
//                    batch by batch and timed (the bench harness needs no
//                    more). The triangle-counting engines live here: their
//                    result is a scalar count, not per-vertex values.
//   StreamingEngine  a BatchEngine that also exposes per-vertex values();
//                    what the driver and differential tests require.
//
// Four engines satisfy StreamingEngine — LigraEngine (restart), ResetEngine
// (delta + restart), GraphBoltEngine (dependency-driven refinement), and
// KickStarterEngine (dependence-tree correction) — and `src/graphbolt.h`
// statically asserts that they keep doing so. Anything generic over an
// engine constrains on these concepts instead of duck typing, so a drifted
// signature is a compile error at the definition site rather than a
// template-instantiation stack.
//
// The contract:
//
//   InitialCompute()   runs the full computation from initial values on the
//                      current graph snapshot (the only entry point; the
//                      old Ligra-style Compute() alias is gone).
//   ApplyMutations(b)  applies the batch to the graph and brings the result
//                      to exactly the new snapshot's, returning the
//                      normalized (Ea, Ed) effect.
//   values()           the per-vertex results of the latest snapshot.
//   stats()            EngineStats for the most recent compute/refine call
//                      (see stats.h for the Clear() lifecycle).
//
// Engines are NOT internally synchronized: InitialCompute/ApplyMutations
// must not run concurrently with each other or with values()/stats()
// readers. ShardedDriver (src/shard/sharded_driver.h) provides that
// serialization for concurrent producers.
#ifndef SRC_CORE_STREAMING_ENGINE_H_
#define SRC_CORE_STREAMING_ENGINE_H_

#include <concepts>
#include <cstddef>
#include <iosfwd>
#include <ranges>
#include <type_traits>
#include <utility>

#include "src/engine/stats.h"
#include "src/graph/mutation.h"

namespace graphbolt {

template <typename E>
concept BatchEngine =
    requires(E engine, const E& const_engine, const MutationBatch& batch) {
      engine.InitialCompute();
      { engine.ApplyMutations(batch) } -> std::same_as<AppliedMutations>;
      { const_engine.stats() } -> std::same_as<const EngineStats&>;
    };

template <typename E>
concept StreamingEngine =
    BatchEngine<E> && requires(const E& const_engine) {
      { const_engine.values() } -> std::ranges::random_access_range;
      { const_engine.values().size() } -> std::convertible_to<size_t>;
    };

// A StreamingEngine whose computed state round-trips through a byte
// stream: SaveStateTo writes everything ApplyMutations depends on beyond
// the graph itself (values, dependency store, ...), LoadStateFrom restores
// it against an already-restored graph and returns false on malformed
// input. What Checkpointer (src/fault/checkpoint.h) and
// ShardedDriver::Recover() require.
template <typename E>
concept CheckpointableEngine =
    StreamingEngine<E> && requires(E engine, const E& const_engine, std::ostream& out,
                                   std::istream& in) {
      { const_engine.SaveStateTo(out) } -> std::same_as<bool>;
      { engine.LoadStateFrom(in) } -> std::same_as<bool>;
    };

// Verdict of the single-update safety classification (the RisGraph-style
// fast path, src/driver/fast_path.h). A mutation is *safe* when the engine
// can prove that applying it through the batched ApplyMutations path would
// leave the engine's computed state (values, dependency store / dependence
// tree) bitwise unchanged — so the update reduces to a bare graph splice
// that can bypass gutter batching. `reason` names the rule that fired
// (static string; for stats, tests, and operator diagnostics).
struct FastPathVerdict {
  bool safe = false;
  const char* reason = "";
};

// The per-vertex value type an engine computes, as seen through values().
template <typename E>
using EngineValueT = std::remove_cvref_t<decltype(std::declval<const E&>().values()[0])>;

class MutableGraph;

// A StreamingEngine that exposes the MutableGraph it computes over. This is
// what lets streaming infrastructure schedule graph maintenance — the
// background SlackCsr compaction steps — in the quiescent windows between
// batches, where the engine contract already guarantees nobody is reading
// or mutating the adjacency. All four engines satisfy it.
template <typename E>
concept GraphMaintainableEngine =
    StreamingEngine<E> && requires(E engine) {
      { engine.mutable_graph() } -> std::convertible_to<MutableGraph*>;
    };

// A StreamingEngine that additionally supports the asynchronous
// delta-accumulative execution mode (the Maiter tier): barrier-free
// propagation of pending deltas for decomposable aggregations, serving
// eventually-consistent values between steps. Only engines whose
// aggregation can retract contributions can satisfy this —
// GraphBoltEngine over PageRank/CoEM/Label Propagation does; KickStarter
// and the non-decomposable (min/max) instantiations are rejected at
// compile time by the `requires(kAsyncEligible)` gates on the members.
//
// The mode contract (see graphbolt_engine.h for semantics):
//
//   EnterAsyncMode()        BSP -> async flip from the current values.
//   AsyncApplyMutations(b)  barrier-free batch apply; activates impacts.
//   AsyncStep(budget)       one bounded priority-ordered propagation round;
//                           returns the convergence residual.
//   AsyncResidual()         last computed residual (0 == at fixed point).
//   ExitAsyncReconcile()    async -> BSP with one reconciling barrier that
//                           restores bitwise-deterministic state.
//   async_mode()            which mode the engine is in.
template <typename E>
concept AsyncDeltaEngine =
    StreamingEngine<E> && requires(E engine, const E& const_engine,
                                   const MutationBatch& batch, size_t budget) {
      engine.EnterAsyncMode();
      { engine.AsyncApplyMutations(batch) } -> std::same_as<AppliedMutations>;
      { engine.AsyncStep(budget) } -> std::same_as<double>;
      { const_engine.AsyncResidual() } -> std::same_as<double>;
      engine.ExitAsyncReconcile();
      { const_engine.async_mode() } -> std::same_as<bool>;
    };

}  // namespace graphbolt

#endif  // SRC_CORE_STREAMING_ENGINE_H_
