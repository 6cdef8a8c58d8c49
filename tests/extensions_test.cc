// Tests for the extension surface: Connected Components, Widest Path,
// Personalized PageRank, weight updates, and GB-Reset's direction
// optimization.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/algorithms/coem.h"
#include "src/algorithms/connected_components.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/personalized_pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/widest_path.h"
#include "src/core/graphbolt_engine.h"
#include "src/engine/ligra_engine.h"
#include "src/engine/reset_engine.h"
#include "src/graph/generators.h"
#include "src/stream/update_stream.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

// Symmetrizes an edge list (adds the reverse of every edge).
EdgeList Symmetrize(EdgeList list) {
  const size_t original = list.num_edges();
  for (size_t i = 0; i < original; ++i) {
    const Edge e = list.edges()[i];
    list.edges().push_back({e.dst, e.src, e.weight});
  }
  list.SortAndDeduplicate();
  return list;
}

// ----- Connected Components ----------------------------------------------------

TEST(ConnectedComponents, TwoIslands) {
  EdgeList list;
  list.set_num_vertices(6);
  list.Add(0, 1);
  list.Add(1, 0);
  list.Add(1, 2);
  list.Add(2, 1);
  list.Add(4, 5);
  list.Add(5, 4);
  MutableGraph graph(std::move(list));
  GraphBoltEngine<ConnectedComponents> engine(
      &graph, ConnectedComponents{}, {.max_iterations = 64, .run_to_convergence = true});
  engine.InitialCompute();
  EXPECT_DOUBLE_EQ(engine.values()[0], 0.0);
  EXPECT_DOUBLE_EQ(engine.values()[1], 0.0);
  EXPECT_DOUBLE_EQ(engine.values()[2], 0.0);
  EXPECT_DOUBLE_EQ(engine.values()[3], 3.0);  // isolated
  EXPECT_DOUBLE_EQ(engine.values()[4], 4.0);
  EXPECT_DOUBLE_EQ(engine.values()[5], 4.0);
}

TEST(ConnectedComponents, EdgeAdditionMergesComponents) {
  EdgeList list;
  list.set_num_vertices(4);
  list.Add(0, 1);
  list.Add(1, 0);
  list.Add(2, 3);
  list.Add(3, 2);
  MutableGraph graph(std::move(list));
  GraphBoltEngine<ConnectedComponents> engine(
      &graph, ConnectedComponents{}, {.max_iterations = 64, .run_to_convergence = true});
  engine.InitialCompute();
  EXPECT_DOUBLE_EQ(engine.values()[3], 2.0);
  engine.ApplyMutations({EdgeMutation::Add(1, 2), EdgeMutation::Add(2, 1)});
  EXPECT_DOUBLE_EQ(engine.values()[2], 0.0);
  EXPECT_DOUBLE_EQ(engine.values()[3], 0.0);
}

TEST(ConnectedComponents, EdgeDeletionSplitsComponents) {
  EdgeList list;
  list.set_num_vertices(4);
  list.Add(0, 1);
  list.Add(1, 0);
  list.Add(1, 2);
  list.Add(2, 1);
  list.Add(2, 3);
  list.Add(3, 2);
  MutableGraph graph(std::move(list));
  GraphBoltEngine<ConnectedComponents> engine(
      &graph, ConnectedComponents{}, {.max_iterations = 64, .run_to_convergence = true});
  engine.InitialCompute();
  EXPECT_DOUBLE_EQ(engine.values()[3], 0.0);
  engine.ApplyMutations({EdgeMutation::Delete(1, 2), EdgeMutation::Delete(2, 1)});
  EXPECT_DOUBLE_EQ(engine.values()[1], 0.0);
  EXPECT_DOUBLE_EQ(engine.values()[2], 2.0);
  EXPECT_DOUBLE_EQ(engine.values()[3], 2.0);
}

TEST(ConnectedComponents, StreamingMatchesRestart) {
  EdgeList full = Symmetrize(GenerateRmat(500, 3000, {.seed = 150}));
  StreamSplit split = SplitForStreaming(full, 0.5, 151);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<ConnectedComponents> bolt(
      &g1, ConnectedComponents{}, {.max_iterations = 256, .run_to_convergence = true});
  LigraEngine<ConnectedComponents> ligra(
      &g2, ConnectedComponents{}, {.max_iterations = 256, .run_to_convergence = true});
  bolt.InitialCompute();
  ligra.InitialCompute();
  UpdateStream stream(split.held_back, 152);
  for (int round = 0; round < 5; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 25, .add_fraction = 0.5});
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), 1e-9) << "round " << round;
  }
}

// ----- Widest Path ---------------------------------------------------------------

TEST(WidestPath, BottleneckOnDiamond) {
  // 0 -> 1 -> 3 with capacities 10, 2 and 0 -> 2 -> 3 with 5, 5.
  EdgeList list;
  list.set_num_vertices(4);
  list.Add(0, 1, 10.0f);
  list.Add(1, 3, 2.0f);
  list.Add(0, 2, 5.0f);
  list.Add(2, 3, 5.0f);
  MutableGraph graph(std::move(list));
  GraphBoltEngine<WidestPath> engine(&graph, WidestPath(0),
                                     {.max_iterations = 64, .run_to_convergence = true});
  engine.InitialCompute();
  EXPECT_DOUBLE_EQ(engine.values()[1], 10.0);
  EXPECT_DOUBLE_EQ(engine.values()[3], 5.0);  // via 2
}

TEST(WidestPath, DeletionNarrowsPath) {
  EdgeList list;
  list.set_num_vertices(4);
  list.Add(0, 1, 10.0f);
  list.Add(1, 3, 2.0f);
  list.Add(0, 2, 5.0f);
  list.Add(2, 3, 5.0f);
  MutableGraph graph(std::move(list));
  GraphBoltEngine<WidestPath> engine(&graph, WidestPath(0),
                                     {.max_iterations = 64, .run_to_convergence = true});
  engine.InitialCompute();
  engine.ApplyMutations({EdgeMutation::Delete(2, 3)});
  EXPECT_DOUBLE_EQ(engine.values()[3], 2.0);  // forced through the bottleneck
  engine.ApplyMutations({EdgeMutation::Add(2, 3, 7.0f)});
  EXPECT_DOUBLE_EQ(engine.values()[3], 5.0);  // min(5, 7) via 2
}

TEST(WidestPath, StreamingMatchesRestart) {
  EdgeList full = GenerateRmat(500, 4000, {.seed = 153, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 154);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<WidestPath> bolt(&g1, WidestPath(0),
                                   {.max_iterations = 256, .run_to_convergence = true});
  LigraEngine<WidestPath> ligra(&g2, WidestPath(0),
                                {.max_iterations = 256, .run_to_convergence = true});
  bolt.InitialCompute();
  ligra.InitialCompute();
  UpdateStream stream(split.held_back, 155);
  for (int round = 0; round < 5; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 25, .add_fraction = 0.5});
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), 1e-9) << "round " << round;
  }
}

// ----- Personalized PageRank -------------------------------------------------------

TEST(PersonalizedPageRank, MassConcentratesNearSources) {
  EdgeList full = GenerateRmat(1000, 8000, {.seed = 156});
  MutableGraph graph(full);
  PersonalizedPageRank algo({0, 1, 2}, graph.num_vertices());
  LigraEngine<PersonalizedPageRank> engine(&graph, algo);
  engine.InitialCompute();
  // Sources hold teleport mass; vertices with no path from sources get 0.
  EXPECT_GT(engine.values()[0], 0.0);
  double total_nonsource = 0.0;
  for (VertexId v = 3; v < graph.num_vertices(); ++v) {
    EXPECT_GE(engine.values()[v], -1e-12);
    total_nonsource += engine.values()[v];
  }
  const double total_source =
      engine.values()[0] + engine.values()[1] + engine.values()[2];
  EXPECT_GT(total_source, total_nonsource / graph.num_vertices() * 3);
}

TEST(PersonalizedPageRank, StreamingMatchesRestart) {
  EdgeList full = GenerateRmat(800, 6000, {.seed = 157});
  StreamSplit split = SplitForStreaming(full, 0.5, 158);
  PersonalizedPageRank algo({0, 5, 9}, full.num_vertices());
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<PersonalizedPageRank> bolt(&g1, algo);
  LigraEngine<PersonalizedPageRank> ligra(&g2, algo);
  bolt.InitialCompute();
  ligra.InitialCompute();
  UpdateStream stream(split.held_back, 159);
  for (int round = 0; round < 5; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 30, .add_fraction = 0.6});
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), 1e-6) << "round " << round;
  }
}

// ----- Weight-update mutations ---------------------------------------------------------

TEST(WeightUpdates, RefinementMatchesRestartForWeightedAlgorithms) {
  // CoEM's aggregation and normalization both read edge weights, so weight
  // updates must retract the old contribution exactly.
  EdgeList full = GenerateRmat(500, 4000, {.seed = 170, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.7, 171);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  CoEM algo(full.num_vertices(), 0.08, 172);
  GraphBoltEngine<CoEM> bolt(&g1, algo);
  LigraEngine<CoEM> ligra(&g2, algo);
  bolt.InitialCompute();
  ligra.InitialCompute();

  Rng rng(173);
  for (int round = 0; round < 5; ++round) {
    MutationBatch batch;
    const EdgeList snapshot = g1.ToEdgeList();
    for (int i = 0; i < 25; ++i) {
      const Edge& e = snapshot.edges()[rng.NextBounded(snapshot.num_edges())];
      batch.push_back(EdgeMutation::UpdateWeight(
          e.src, e.dst, static_cast<Weight>(0.1 + rng.NextDouble())));
    }
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), 1e-8) << "round " << round;
  }
}

TEST(WeightUpdates, SsspReactsToWeightChange) {
  EdgeList list;
  list.set_num_vertices(3);
  list.Add(0, 1, 1.0f);
  list.Add(0, 2, 5.0f);
  list.Add(1, 2, 1.0f);
  MutableGraph graph(std::move(list));
  GraphBoltEngine<Sssp> engine(&graph, Sssp(0),
                               {.max_iterations = 64, .run_to_convergence = true});
  engine.InitialCompute();
  EXPECT_DOUBLE_EQ(engine.values()[2], 2.0);  // via 1
  engine.ApplyMutations({EdgeMutation::UpdateWeight(1, 2, 10.0f)});
  EXPECT_DOUBLE_EQ(engine.values()[2], 5.0);  // direct edge now shorter
  engine.ApplyMutations({EdgeMutation::UpdateWeight(0, 2, 0.5f)});
  EXPECT_DOUBLE_EQ(engine.values()[2], 0.5);
}

// ----- Direction optimization ---------------------------------------------------------

TEST(DirectionOptimization, DenseSwitchPreservesResults) {
  EdgeList list = GenerateRmat(600, 5000, {.seed = 164});
  MutableGraph g1(list);
  MutableGraph g2(list);
  MutableGraph g3(list);
  // Aggressive threshold: switches to dense pulls almost every iteration.
  ResetEngine<PageRank> dense(&g1, PageRank{}, {.dense_threshold = 0.01});
  ResetEngine<PageRank> sparse(&g2, PageRank{}, {.dense_threshold = 2.0});
  LigraEngine<PageRank> reference(&g3, PageRank{});
  dense.InitialCompute();
  sparse.InitialCompute();
  reference.InitialCompute();
  EXPECT_LT(MaxGap(dense.values(), reference.values()), 1e-9);
  EXPECT_LT(MaxGap(sparse.values(), reference.values()), 1e-9);
}

TEST(DirectionOptimization, DenseSwitchSurvivesMutations) {
  EdgeList full = GenerateRmat(500, 4000, {.seed = 165});
  StreamSplit split = SplitForStreaming(full, 0.5, 166);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  ResetEngine<PageRank> dense(&g1, PageRank{}, {.dense_threshold = 0.05});
  LigraEngine<PageRank> reference(&g2, PageRank{});
  dense.InitialCompute();
  reference.InitialCompute();
  UpdateStream stream(split.held_back, 167);
  for (int round = 0; round < 4; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 30, .add_fraction = 0.6});
    dense.ApplyMutations(batch);
    reference.ApplyMutations(batch);
    ASSERT_LT(MaxGap(dense.values(), reference.values()), 1e-9) << "round " << round;
  }
}

// ----- State serialization ---------------------------------------------------------

TEST(StateSerialization, SaveLoadResumesStreamingExactly) {
  EdgeList full = GenerateRmat(400, 3000, {.seed = 180, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 181);
  MutableGraph g1(split.initial);
  GraphBoltEngine<PageRank> original(&g1, PageRank{});
  original.InitialCompute();
  UpdateStream stream(split.held_back, 182);
  const MutationBatch warmup = stream.NextBatch(g1, {.size = 25, .add_fraction = 0.6});
  original.ApplyMutations(warmup);

  const std::string path = testing::TempDir() + "/engine_state.bin";
  ASSERT_TRUE(original.SaveState(path));

  // Resume in a "fresh process": same graph snapshot, new engine.
  MutableGraph g2(g1.ToEdgeList());
  GraphBoltEngine<PageRank> resumed(&g2, PageRank{});
  ASSERT_TRUE(resumed.LoadState(path));
  EXPECT_LT(MaxGap(resumed.values(), original.values()), 1e-15);
  EXPECT_EQ(resumed.store().tracked_levels(), original.store().tracked_levels());
  EXPECT_EQ(resumed.store().total_levels(), original.store().total_levels());

  // Both engines must refine identically from here.
  const MutationBatch next = stream.NextBatch(g1, {.size = 25, .add_fraction = 0.6});
  original.ApplyMutations(next);
  resumed.ApplyMutations(next);
  EXPECT_LT(MaxGap(resumed.values(), original.values()), 1e-12);
  std::remove(path.c_str());
}

TEST(StateSerialization, LoadRejectsWrongGraph) {
  EdgeList list = GenerateRmat(100, 600, {.seed = 183});
  MutableGraph g1(list);
  GraphBoltEngine<PageRank> engine(&g1, PageRank{});
  engine.InitialCompute();
  const std::string path = testing::TempDir() + "/engine_state_bad.bin";
  ASSERT_TRUE(engine.SaveState(path));

  MutableGraph g2(GenerateRmat(50, 300, {.seed = 184}));  // different vertex count
  GraphBoltEngine<PageRank> other(&g2, PageRank{});
  EXPECT_FALSE(other.LoadState(path));
  std::remove(path.c_str());
}

TEST(StateSerialization, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/garbage_state.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not an engine state";
  }
  MutableGraph graph(GenerateRmat(50, 300, {.seed = 185}));
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  EXPECT_FALSE(engine.LoadState(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphbolt
