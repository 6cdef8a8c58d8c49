// Tests for horizontal pruning and computation-aware hybrid execution: a
// truncated dependency history must still give exact BSP results via the
// changed-bit-guided continuation (§4.2).
#include <gtest/gtest.h>

#include "src/algorithms/coem.h"
#include "src/algorithms/label_propagation.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/core/compact_dependency_store.h"
#include "src/core/graphbolt_engine.h"
#include "src/engine/ligra_engine.h"
#include "src/graph/generators.h"
#include "src/stream/update_stream.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

// Streams batches through a GraphBolt engine with the given history size and
// checks every snapshot against a restarting Ligra engine.
template <typename Algo>
void StreamWithHistory(Algo algo, uint32_t history, const EdgeList& full, int rounds,
                       size_t batch_size, double tolerance) {
  StreamSplit split = SplitForStreaming(full, 0.5, 100);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<Algo> bolt(&g1, algo, {.max_iterations = 10, .history_size = history});
  LigraEngine<Algo> ligra(&g2, algo, {.max_iterations = 10});
  bolt.InitialCompute();
  ligra.InitialCompute();
  EXPECT_EQ(bolt.store().tracked_levels(), std::min<uint32_t>(history, 10));
  EXPECT_EQ(bolt.store().total_levels(), 10u);

  UpdateStream stream(split.held_back, 101);
  for (int round = 0; round < rounds; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = batch_size, .add_fraction = 0.6});
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), tolerance)
        << "history " << history << " round " << round;
  }
}

TEST(HybridExecution, HistoryFiveOfTenPageRank) {
  StreamWithHistory(PageRank{}, 5, GenerateRmat(800, 7000, {.seed = 102}), 6, 40, 1e-7);
}

TEST(HybridExecution, HistoryOnePageRank) {
  // The most aggressive horizontal pruning: only iteration 1 is refinable;
  // everything else replays through changed bits.
  StreamWithHistory(PageRank{}, 1, GenerateRmat(800, 7000, {.seed = 103}), 6, 40, 1e-7);
}

TEST(HybridExecution, HistoryNineOfTenPageRank) {
  StreamWithHistory(PageRank{}, 9, GenerateRmat(800, 7000, {.seed = 104}), 4, 40, 1e-7);
}

TEST(HybridExecution, HistoryThreeLabelPropagation) {
  EdgeList full = GenerateRmat(600, 5000, {.seed = 105, .assign_random_weights = true});
  StreamWithHistory(LabelPropagation<2>(full.num_vertices(), 0.1, 106), 3, full, 5, 30, 1e-7);
}

TEST(HybridExecution, HistoryFourCoEM) {
  EdgeList full = GenerateRmat(600, 5000, {.seed = 107, .assign_random_weights = true});
  StreamWithHistory(CoEM(full.num_vertices(), 0.08, 108), 4, full, 5, 30, 1e-7);
}

TEST(HybridExecution, ContinuationDoesLessWorkThanRestartForSmallBatches) {
  EdgeList full = GenerateRmat(3000, 30000, {.seed = 109});
  StreamSplit split = SplitForStreaming(full, 0.5, 110);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<PageRank> pruned(&g1, PageRank{}, {.max_iterations = 10, .history_size = 5});
  LigraEngine<PageRank> ligra(&g2, PageRank{}, {.max_iterations = 10});
  pruned.InitialCompute();
  ligra.InitialCompute();
  const MutationBatch batch{EdgeMutation::Add(1, 2), EdgeMutation::Add(3, 4)};
  pruned.ApplyMutations(batch);
  ligra.ApplyMutations(batch);
  EXPECT_LT(MaxGap(pruned.values(), ligra.values()), 1e-7);
  EXPECT_LT(pruned.stats().edges_processed, ligra.stats().edges_processed);
}

TEST(HybridExecution, SsspConvergenceWithTruncatedHistory) {
  // Convergence-mode non-decomposable algorithm with pruned history: the
  // continuation must extend past the tracked levels until the new fixpoint.
  EdgeList full = GenerateRmat(500, 4000, {.seed = 111, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 112);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<Sssp> bolt(
      &g1, Sssp(0), {.max_iterations = 128, .run_to_convergence = true, .history_size = 4});
  LigraEngine<Sssp> ligra(&g2, Sssp(0), {.max_iterations = 128, .run_to_convergence = true});
  bolt.InitialCompute();
  ligra.InitialCompute();
  EXPECT_LE(bolt.store().tracked_levels(), 4u);

  UpdateStream stream(split.held_back, 113);
  for (int round = 0; round < 4; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 25, .add_fraction = 0.5});
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), 1e-9) << "round " << round;
  }
}

TEST(HybridExecution, ConvergenceModeExtendsLevelsWhenNeeded) {
  // A deletion forcing longer shortest paths requires more iterations than
  // the original run recorded; the continuation must append levels.
  EdgeList list;
  list.set_num_vertices(6);
  list.Add(0, 5);           // shortcut
  list.Add(0, 1);
  list.Add(1, 2);
  list.Add(2, 3);
  list.Add(3, 4);
  list.Add(4, 5);           // long path
  MutableGraph graph(std::move(list));
  GraphBoltEngine<Sssp> bolt(&graph, Sssp(0),
                             {.max_iterations = 64, .run_to_convergence = true});
  bolt.InitialCompute();
  EXPECT_DOUBLE_EQ(bolt.values()[5], 1.0);
  const uint32_t levels_before = bolt.store().total_levels();
  bolt.ApplyMutations({EdgeMutation::Delete(0, 5)});
  EXPECT_DOUBLE_EQ(bolt.values()[5], 5.0);
  EXPECT_GT(bolt.store().total_levels(), levels_before);
}

// A batch that lengthens convergence must leave the history whole: the
// continuation snapshots the levels it adds, so the engine ends exactly as
// InitialCompute on the new snapshot would — values and store bitwise — and
// the fast path can still prove single updates against it.
template <typename StoreT>
void ExpectLengthenedRunKeepsWholeHistory() {
  EdgeList list;
  list.set_num_vertices(6);
  list.Add(0, 5);  // shortcut
  list.Add(0, 1);
  list.Add(1, 2);
  list.Add(2, 3);
  list.Add(3, 4);
  list.Add(4, 5);  // long path
  MutableGraph graph(std::move(list));
  const typename GraphBoltEngine<Sssp, StoreT>::Options options{.max_iterations = 64,
                                                                .run_to_convergence = true};
  GraphBoltEngine<Sssp, StoreT> bolt(&graph, Sssp(0), options);
  bolt.InitialCompute();
  const uint32_t levels_before = bolt.store().total_levels();
  ASSERT_EQ(bolt.store().tracked_levels(), levels_before);

  bolt.ApplyMutations({EdgeMutation::Delete(0, 5)});
  ASSERT_GT(bolt.store().total_levels(), levels_before);
  EXPECT_EQ(bolt.store().tracked_levels(), bolt.store().total_levels());

  MutableGraph fresh_graph(graph.ToEdgeList());
  GraphBoltEngine<Sssp, StoreT> fresh(&fresh_graph, Sssp(0), options);
  fresh.InitialCompute();
  EXPECT_TRUE(SameValueBits(bolt.values(), fresh.values()));
  EXPECT_EQ(StoreDiff(bolt.store(), fresh.store()), "");

  // 5 is reached last, and 5->4 (15 > 4) relaxes no tracked level. Had the
  // continuation not snapshotted the level it added, every verdict would
  // be "pruned-history".
  const FastPathVerdict verdict = bolt.ClassifyFast(EdgeMutation::Add(5, 4, 10.0f));
  EXPECT_TRUE(verdict.safe) << verdict.reason;
}

TEST(HybridExecution, LengthenedConvergenceKeepsWholeHistoryDense) {
  ExpectLengthenedRunKeepsWholeHistory<DependencyStore<double>>();
}

TEST(HybridExecution, LengthenedConvergenceKeepsWholeHistoryCompact) {
  ExpectLengthenedRunKeepsWholeHistory<CompactDependencyStore<double>>();
}

TEST(HybridExecution, RepeatedBatchesWithPrunedHistoryStayExact) {
  // The continuation rewrites changed bits; 15 successive batches must not
  // let drift creep in through stale bit vectors.
  EdgeList full = GenerateRmat(500, 4500, {.seed = 114});
  StreamSplit split = SplitForStreaming(full, 0.5, 115);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{}, {.max_iterations = 10, .history_size = 3});
  LigraEngine<PageRank> ligra(&g2, PageRank{}, {.max_iterations = 10});
  bolt.InitialCompute();
  ligra.InitialCompute();
  UpdateStream stream(split.held_back, 116);
  for (int round = 0; round < 15; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 15, .add_fraction = 0.55});
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), 1e-7) << "round " << round;
  }
}

TEST(MonotonicFastPath, AdditionOnlyBatchesMatchRestart) {
  // Sssp::kMonotonic lets refinement fold improved contributions instead of
  // re-evaluating full in-neighborhoods (an addition-only batch never
  // re-pulls); results must be identical to a restart.
  EdgeList full = GenerateRmat(600, 5000, {.seed = 120, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 121);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<Sssp> bolt(&g1, Sssp(0), {.max_iterations = 256, .run_to_convergence = true});
  LigraEngine<Sssp> ligra(&g2, Sssp(0), {.max_iterations = 256, .run_to_convergence = true});
  bolt.InitialCompute();
  ligra.InitialCompute();
  UpdateStream stream(split.held_back, 122);
  for (int round = 0; round < 5; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 30, .add_fraction = 1.0});
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), 1e-9) << "round " << round;
  }
}

TEST(MonotonicFastPath, AdditionOnlyDoesLessWorkThanReevaluation) {
  EdgeList full = GenerateRmat(3000, 25000, {.seed = 123, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 124);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<Sssp> bolt(&g1, Sssp(0), {.max_iterations = 256, .run_to_convergence = true});
  GraphBoltEngine<Sssp> bolt2(&g2, Sssp(0), {.max_iterations = 256, .run_to_convergence = true});
  bolt.InitialCompute();
  bolt2.InitialCompute();

  MutationBatch adds_only;
  MutationBatch mixed;
  for (size_t i = 0; i < 20; ++i) {
    const Edge& e = split.held_back[i];
    adds_only.push_back(EdgeMutation::Add(e.src, e.dst, e.weight));
    mixed.push_back(EdgeMutation::Add(e.src, e.dst, e.weight));
  }
  // One deletion can take an attaining input away: its target, and any
  // target downstream that loses its attaining input, re-pulls its full
  // in-neighborhood.
  const EdgeList snapshot = g2.ToEdgeList();
  mixed.push_back(EdgeMutation::Delete(snapshot.edges()[0].src, snapshot.edges()[0].dst));

  bolt.ApplyMutations(adds_only);
  bolt2.ApplyMutations(mixed);
  EXPECT_LT(bolt.stats().edges_processed, bolt2.stats().edges_processed);
}

TEST(ResetFallback, LargeBatchTriggersRecomputeAndStaysCorrect) {
  EdgeList full = GenerateRmat(500, 4000, {.seed = 125});
  StreamSplit split = SplitForStreaming(full, 0.5, 126);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{}, {.reset_fallback_fraction = 0.01});
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  bolt.InitialCompute();
  ligra.InitialCompute();

  UpdateStream stream(split.held_back, 127);
  // Large batch (> 1% of edges): recompute path.
  const MutationBatch large = stream.NextBatch(g1, {.size = 500, .add_fraction = 0.6});
  bolt.ApplyMutations(large);
  ligra.ApplyMutations(large);
  EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-8);
  // The recompute must leave a consistent store: a small batch afterwards
  // refines correctly.
  const MutationBatch small = stream.NextBatch(g1, {.size = 5, .add_fraction = 0.6});
  bolt.ApplyMutations(small);
  ligra.ApplyMutations(small);
  EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-7);
}

}  // namespace
}  // namespace graphbolt
