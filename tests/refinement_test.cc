// Tests targeting the dependency-driven refinement machinery itself:
// the Figure 2 motivation (naive reuse is wrong, refinement is right),
// dependency-store bookkeeping, and refinement edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "src/algorithms/coem.h"
#include "src/algorithms/connected_components.h"
#include "src/algorithms/label_propagation.h"
#include "src/algorithms/multi_source_reach.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/personalized_pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/widest_path.h"
#include "src/core/dependency_store.h"
#include "src/core/graphbolt_engine.h"
#include "src/engine/ligra_engine.h"
#include "src/graph/generators.h"
#include "src/parallel/thread_pool.h"
#include "src/stream/update_stream.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

// ----- Figure 2 motivation -----------------------------------------------------

TEST(Motivation, NaiveReuseProducesWrongResults) {
  // §2.2: starting incremental computation from the old converged values
  // (without refinement) violates BSP semantics and lands on wrong answers.
  EdgeList full = GenerateRmat(800, 6000, {.seed = 80});
  StreamSplit split = SplitForStreaming(full, 0.5, 81);
  MutableGraph g_exact(split.initial);
  MutableGraph g_naive(split.initial);

  LabelPropagation<2> algo(full.num_vertices(), 0.1, 82);
  LigraEngine<LabelPropagation<2>> exact(&g_exact, algo);
  exact.InitialCompute();

  // Naive reuse: run 10 iterations from the PRE-mutation converged values
  // instead of from initial values (S*(GT, R_G) in Figure 1).
  LigraEngine<LabelPropagation<2>> naive(&g_naive, algo);
  naive.InitialCompute();

  UpdateStream stream(split.held_back, 83);
  const MutationBatch batch = stream.NextBatch(g_exact, {.size = 100, .add_fraction = 0.6});
  exact.ApplyMutations(batch);  // restart: correct S*(GT, I)

  // Hand-rolled naive reuse on the same batch.
  g_naive.ApplyBatch(batch);
  std::vector<std::array<double, 2>> stale = naive.values();
  {
    // Continue iterating from stale values on the mutated graph.
    auto contexts = ComputeVertexContexts(g_naive);
    for (int iter = 0; iter < 10; ++iter) {
      std::vector<std::array<double, 2>> next(g_naive.num_vertices());
      for (VertexId v = 0; v < g_naive.num_vertices(); ++v) {
        auto agg = algo.IdentityAggregate();
        const auto in_nbrs = g_naive.InNeighbors(v);
        const auto in_wts = g_naive.InWeights(v);
        for (size_t i = 0; i < in_nbrs.size(); ++i) {
          algo.AggregateAtomic(&agg,
                               algo.ContributionOf(in_nbrs[i], stale[in_nbrs[i]], in_wts[i],
                                                   contexts[in_nbrs[i]]));
        }
        next[v] = algo.VertexCompute(v, agg, contexts[v]);
      }
      stale.swap(next);
    }
  }
  // The naive result must differ measurably from the exact one (Table 1),
  // while GraphBolt matches it (tested throughout this suite).
  EXPECT_GT(MaxGap(stale, exact.values()), 1e-4);
}

TEST(Motivation, GraphBoltMatchesExactWhereNaiveDiverges) {
  EdgeList full = GenerateRmat(800, 6000, {.seed = 80});
  StreamSplit split = SplitForStreaming(full, 0.5, 81);
  MutableGraph g_exact(split.initial);
  MutableGraph g_bolt(split.initial);

  LabelPropagation<2> algo(full.num_vertices(), 0.1, 82);
  LigraEngine<LabelPropagation<2>> exact(&g_exact, algo);
  GraphBoltEngine<LabelPropagation<2>> bolt(&g_bolt, algo);
  exact.InitialCompute();
  bolt.InitialCompute();

  UpdateStream stream(split.held_back, 83);
  const MutationBatch batch = stream.NextBatch(g_exact, {.size = 100, .add_fraction = 0.6});
  exact.ApplyMutations(batch);
  bolt.ApplyMutations(batch);
  EXPECT_LT(MaxGap(bolt.values(), exact.values()), 1e-7);
}

// ----- Dependency store ----------------------------------------------------------

TEST(DependencyStore, SnapshotsInOrder) {
  DependencyStore<double> store;
  store.Reset(4, 10);
  store.SnapshotLevel(1, {1, 2, 3, 4}, AtomicBitset(4));
  store.SnapshotLevel(2, {5, 6, 7, 8}, AtomicBitset(4));
  EXPECT_EQ(store.tracked_levels(), 2u);
  EXPECT_EQ(store.total_levels(), 2u);
  EXPECT_DOUBLE_EQ(store.At(1, 2), 3.0);
  EXPECT_DOUBLE_EQ(store.At(2, 0), 5.0);
}

TEST(DependencyStore, HorizontalPruningDropsAggregates) {
  DependencyStore<double> store;
  store.Reset(2, 1);  // history of one level
  store.SnapshotLevel(1, {1, 2}, AtomicBitset(2));
  store.SnapshotLevel(2, {3, 4}, AtomicBitset(2));
  EXPECT_EQ(store.tracked_levels(), 1u);
  EXPECT_EQ(store.total_levels(), 2u);  // changed bits kept for both
  EXPECT_TRUE(store.IsTracked(1));
  EXPECT_FALSE(store.IsTracked(2));
}

TEST(DependencyStore, VerticalPruningAccounting) {
  DependencyStore<double> store;
  store.Reset(3, 10);
  store.SnapshotLevel(1, {1, 2, 3}, AtomicBitset(3));
  // Only vertex 0 changes at level 2: one fresh logical entry.
  store.SnapshotLevel(2, {9, 2, 3}, AtomicBitset(3));
  EXPECT_EQ(store.logical_entries(), 3u + 1u);
  // Nothing changes at level 3.
  store.SnapshotLevel(3, {9, 2, 3}, AtomicBitset(3));
  EXPECT_EQ(store.logical_entries(), 4u);
  EXPECT_GT(store.logical_bytes(), 4u * sizeof(double));
}

TEST(DependencyStore, GrowVerticesExtendsLevels) {
  DependencyStore<double> store;
  store.Reset(2, 10);
  AtomicBitset bits(2);
  bits.Set(1);
  store.SnapshotLevel(1, {1, 2}, std::move(bits));
  store.GrowVertices(4, 0.0);
  EXPECT_EQ(store.num_vertices(), 4u);
  EXPECT_DOUBLE_EQ(store.At(1, 3), 0.0);
  EXPECT_TRUE(store.ChangedAt(1).Test(1));
  EXPECT_FALSE(store.ChangedAt(1).Test(3));
}

TEST(DependencyStore, ChangedBitsPerLevel) {
  DependencyStore<double> store;
  store.Reset(3, 10);
  AtomicBitset bits1(3);
  bits1.Set(0);
  store.SnapshotLevel(1, {1, 2, 3}, std::move(bits1));
  AtomicBitset bits2(3);
  bits2.Set(2);
  store.SnapshotLevel(2, {1, 2, 4}, std::move(bits2));
  EXPECT_TRUE(store.ChangedAt(1).Test(0));
  EXPECT_FALSE(store.ChangedAt(1).Test(2));
  EXPECT_TRUE(store.ChangedAt(2).Test(2));
}

// ----- Refinement edge cases -------------------------------------------------------

TEST(Refinement, StoreReflectsRefinedStateAcrossBatches) {
  // After a batch, the store must describe the new graph's run exactly, so a
  // second batch refines from a consistent base. Verified by checking the
  // refined engine against a fresh engine built on the mutated graph.
  EdgeList full = GenerateRmat(500, 4000, {.seed = 84});
  StreamSplit split = SplitForStreaming(full, 0.5, 85);
  MutableGraph g1(split.initial);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  bolt.InitialCompute();

  UpdateStream stream(split.held_back, 86);
  for (int round = 0; round < 3; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 40, .add_fraction = 0.6});
    bolt.ApplyMutations(batch);
  }
  // Fresh engine on the final snapshot: the refined store must agree level
  // by level through its tracked aggregations' derived values.
  MutableGraph g2(g1.ToEdgeList());
  GraphBoltEngine<PageRank> fresh(&g2, PageRank{});
  fresh.InitialCompute();
  EXPECT_LT(MaxGap(bolt.values(), fresh.values()), 1e-7);
  ASSERT_EQ(bolt.store().tracked_levels(), fresh.store().tracked_levels());
  for (uint32_t level = 1; level <= fresh.store().tracked_levels(); ++level) {
    double gap = 0.0;
    for (VertexId v = 0; v < g1.num_vertices(); ++v) {
      gap = std::max(gap, std::fabs(bolt.store().At(level, v) - fresh.store().At(level, v)));
    }
    EXPECT_LT(gap, 1e-7) << "level " << level;
  }
}

TEST(Refinement, DeleteOnlyBatch) {
  EdgeList list = GenerateRmat(400, 3000, {.seed = 87});
  MutableGraph g1(list);
  MutableGraph g2(list);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  bolt.InitialCompute();
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  ligra.InitialCompute();

  // Delete the first 30 edges of the export.
  MutationBatch batch;
  const EdgeList snapshot = g1.ToEdgeList();
  for (size_t i = 0; i < 30 && i < snapshot.num_edges(); ++i) {
    batch.push_back(EdgeMutation::Delete(snapshot.edges()[i].src, snapshot.edges()[i].dst));
  }
  bolt.ApplyMutations(batch);
  ligra.ApplyMutations(batch);
  EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-8);
}

TEST(Refinement, AddOnlyBatch) {
  EdgeList full = GenerateRmat(400, 4000, {.seed = 88});
  StreamSplit split = SplitForStreaming(full, 0.6, 89);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  bolt.InitialCompute();
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  ligra.InitialCompute();

  MutationBatch batch;
  for (size_t i = 0; i < 50 && i < split.held_back.size(); ++i) {
    batch.push_back(EdgeMutation::Add(split.held_back[i].src, split.held_back[i].dst,
                                      split.held_back[i].weight));
  }
  bolt.ApplyMutations(batch);
  ligra.ApplyMutations(batch);
  EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-8);
}

TEST(Refinement, AddAndDeleteSameVertexNeighborhood) {
  // Concentrated mutations around one hub stress the transitive pass.
  EdgeList list = GenerateStar(50);
  MutableGraph g1(list);
  MutableGraph g2(list);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  bolt.InitialCompute();
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  ligra.InitialCompute();

  const MutationBatch batch{
      EdgeMutation::Delete(0, 1), EdgeMutation::Delete(0, 2), EdgeMutation::Add(1, 2),
      EdgeMutation::Add(2, 3),    EdgeMutation::Delete(3, 0),
  };
  bolt.ApplyMutations(batch);
  ligra.ApplyMutations(batch);
  EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-9);
}

TEST(Refinement, MutationsOnEmptyishGraph) {
  // Start from a nearly empty graph; additions dominate everything.
  EdgeList list;
  list.set_num_vertices(10);
  list.Add(0, 1);
  MutableGraph g1(list);
  MutableGraph g2(list);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  bolt.InitialCompute();
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  ligra.InitialCompute();

  MutationBatch batch;
  for (VertexId v = 0; v < 9; ++v) {
    batch.push_back(EdgeMutation::Add(v, v + 1));
    batch.push_back(EdgeMutation::Add(v + 1, v));
  }
  bolt.ApplyMutations(batch);
  ligra.ApplyMutations(batch);
  EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-9);
}

TEST(Refinement, LargeBatchStillExact) {
  // A batch touching a third of the graph: refinement cost approaches a
  // restart but correctness must hold.
  EdgeList full = GenerateRmat(600, 6000, {.seed = 90});
  StreamSplit split = SplitForStreaming(full, 0.5, 91);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  bolt.InitialCompute();
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  ligra.InitialCompute();

  UpdateStream stream(split.held_back, 92);
  const MutationBatch batch = stream.NextBatch(g1, {.size = 1000, .add_fraction = 0.6});
  bolt.ApplyMutations(batch);
  ligra.ApplyMutations(batch);
  EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-7);
}

TEST(Refinement, StatsReportRefinementWork) {
  EdgeList list = GenerateRmat(400, 3000, {.seed = 93});
  MutableGraph graph(list);
  GraphBoltEngine<PageRank> bolt(&graph, PageRank{});
  bolt.InitialCompute();
  const uint64_t initial_edges = bolt.stats().edges_processed;
  EXPECT_GT(initial_edges, 0u);
  // Find an edge that is actually absent so the batch is not a no-op.
  VertexId dst = 5;
  while (graph.HasEdge(0, dst)) {
    ++dst;
  }
  bolt.ApplyMutations({EdgeMutation::Add(0, dst)});
  EXPECT_GT(bolt.stats().edges_processed, 0u);
  EXPECT_LT(bolt.stats().edges_processed, initial_edges);
  EXPECT_EQ(bolt.stats().iterations, 10u);
  EXPECT_GE(bolt.stats().seconds, 0.0);
  EXPECT_GE(bolt.stats().mutation_seconds, 0.0);
}

// ----- Direction choice: sparse levels push, dense levels pull ------------------

// An R-MAT graph plus a small ring-with-chords component it cannot reach and
// that cannot reach it, and two batches on it: one mutation inside the small
// component, whose refinement frontier therefore stays sparse, and |V|/10
// uniform mutations, whose frontier is dense from level 1.
struct DirectionCase {
  static constexpr VertexId kRmatVertices = 2000;
  static constexpr VertexId kClusterVertices = 30;

  EdgeList initial;
  MutationBatch sparse;
  MutationBatch dense;

  DirectionCase() {
    const EdgeList full = GenerateRmat(kRmatVertices, 16000, {.seed = 94});
    StreamSplit split = SplitForStreaming(full, 0.6, 95);
    initial = std::move(split.initial);
    initial.set_num_vertices(kRmatVertices + kClusterVertices);
    for (VertexId i = 0; i < kClusterVertices; ++i) {
      initial.Add(kRmatVertices + i, kRmatVertices + (i + 1) % kClusterVertices);
      initial.Add(kRmatVertices + i, kRmatVertices + (i + 7) % kClusterVertices);
    }
    sparse = {EdgeMutation::Add(kRmatVertices + 3, kRmatVertices + 17)};
    MutableGraph scratch(initial);
    UpdateStream stream(split.held_back, 96);
    dense = stream.NextBatch(scratch, {.size = (kRmatVertices + kClusterVertices) / 10,
                                       .add_fraction = 0.5});
  }

  VertexId num_vertices() const { return initial.num_vertices(); }
};

// Out-edges of the batch endpoints whose context the batch changed: the
// level-1 frontier's out-edges. Those vertices stay in the frontier at every
// level, so past |E|/20 every refined level pulls.
uint64_t ContextChangedOutEdges(const EdgeList& initial, const MutationBatch& batch) {
  MutableGraph graph(initial);
  const std::vector<VertexContext> before = ComputeVertexContexts(graph);
  graph.ApplyBatch(batch);
  const std::vector<VertexContext> after = ComputeVertexContexts(graph);
  std::vector<VertexId> endpoints;
  for (const EdgeMutation& m : batch) {
    endpoints.push_back(m.src);
    endpoints.push_back(m.dst);
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()), endpoints.end());
  uint64_t edges = 0;
  for (const VertexId v : endpoints) {
    edges += before[v] == after[v] ? 0 : graph.OutDegree(v);
  }
  return edges;
}

// Out-edges of everything reachable from the batch endpoints after the
// batch: a bound on every level's frontier out-edges, so below |E|/20 every
// refined level pushes.
uint64_t ReachableOutEdges(const EdgeList& initial, const MutationBatch& batch) {
  MutableGraph graph(initial);
  graph.ApplyBatch(batch);
  std::vector<bool> seen(graph.num_vertices(), false);
  std::deque<VertexId> queue;
  for (const EdgeMutation& m : batch) {
    for (const VertexId v : {m.src, m.dst}) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
  }
  uint64_t edges = 0;
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    edges += graph.OutDegree(u);
    for (const VertexId w : graph.OutNeighbors(u)) {
      if (!seen[w]) {
        seen[w] = true;
        queue.push_back(w);
      }
    }
  }
  return edges;
}

uint64_t DenseThreshold(const EdgeList& initial, const MutationBatch& batch) {
  MutableGraph graph(initial);
  graph.ApplyBatch(batch);
  return graph.num_edges() / kDenseFrontierDenominator;
}

// Restores the arena width a test found when it ends.
class ArenaWidthGuard {
 public:
  ArenaWidthGuard() : width_(ThreadPool::Instance().num_threads()) {}
  ~ArenaWidthGuard() { ThreadPool::SetNumThreads(width_); }

 private:
  size_t width_;
};

// Refines `batch` at arena widths 1, 2 and 4 and checks each result against
// a from-scratch Ligra run on the mutated graph.
template <typename Algo>
void ExpectRefinementMatchesLigra(const Algo& algo, const EdgeList& initial,
                                  const MutationBatch& batch) {
  ArenaWidthGuard guard;
  for (const size_t width : {1, 2, 4}) {
    SCOPED_TRACE("arena width " + std::to_string(width));
    ThreadPool::SetNumThreads(width);
    MutableGraph g1(initial);
    MutableGraph g2(initial);
    GraphBoltEngine<Algo> bolt(&g1, algo);
    bolt.InitialCompute();
    LigraEngine<Algo> ligra(&g2, algo);
    ligra.InitialCompute();
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-8);
  }
}

template <typename Algo>
void ExpectBothDirectionsMatchLigra(const Algo& algo, const DirectionCase& c) {
  {
    SCOPED_TRACE("sparse batch");
    ExpectRefinementMatchesLigra(algo, c.initial, c.sparse);
  }
  {
    SCOPED_TRACE("dense batch");
    ExpectRefinementMatchesLigra(algo, c.initial, c.dense);
  }
}

TEST(RefinementDirection, BatchesHaveTheIntendedDensity) {
  const DirectionCase c;
  EXPECT_LE(ReachableOutEdges(c.initial, c.sparse), DenseThreshold(c.initial, c.sparse));
  EXPECT_GE(c.dense.size(), c.num_vertices() / 10);
  EXPECT_GT(ContextChangedOutEdges(c.initial, c.dense), DenseThreshold(c.initial, c.dense));
}

TEST(RefinementDirection, PageRankMatchesLigra) {
  const DirectionCase c;
  ExpectBothDirectionsMatchLigra(PageRank{}, c);
}

TEST(RefinementDirection, CoEMMatchesLigra) {
  const DirectionCase c;
  ExpectBothDirectionsMatchLigra(CoEM(c.num_vertices(), 0.05, 97), c);
}

TEST(RefinementDirection, LabelPropagationMatchesLigra) {
  const DirectionCase c;
  ExpectBothDirectionsMatchLigra(LabelPropagation<2>(c.num_vertices(), 0.1, 98), c);
}

TEST(RefinementDirection, PersonalizedPageRankMatchesLigra) {
  const DirectionCase c;
  // One source in the small component so the sparse batch moves values.
  const std::vector<VertexId> sources = {0, 1, 5, DirectionCase::kRmatVertices + 2};
  ExpectBothDirectionsMatchLigra(PersonalizedPageRank(sources, c.num_vertices()), c);
}

TEST(RefinementDirection, DenseLevelsAreBitwiseReproducibleAcrossWidths) {
  // Every refined level of the dense batch pulls, and a pull level sums each
  // target in a fixed order, so the refined values do not depend on the
  // arena width. The initial run (schedule-ordered push iterations) is kept
  // at width 1 so every engine refines from the same bits.
  const DirectionCase c;
  ASSERT_GT(ContextChangedOutEdges(c.initial, c.dense), DenseThreshold(c.initial, c.dense));
  ArenaWidthGuard guard;
  std::vector<std::vector<double>> results;
  for (const size_t width : {1, 2, 4}) {
    ThreadPool::SetNumThreads(1);
    MutableGraph graph(c.initial);
    GraphBoltEngine<PageRank> bolt(&graph, PageRank{});
    bolt.InitialCompute();
    ThreadPool::SetNumThreads(width);
    bolt.ApplyMutations(c.dense);
    results.push_back(bolt.values());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].size(), results[0].size());
    EXPECT_EQ(std::memcmp(results[i].data(), results[0].data(),
                          results[0].size() * sizeof(double)),
              0)
        << "width " << (size_t{1} << i) << " differs from width 1";
  }
}

// ----- Selective min/max re-evaluation ------------------------------------------

struct EdgeTotals {
  uint64_t selective = 0;
  uint64_t full = 0;
};

// Streams mixed (50/50) batches through a selective engine and one forced
// to full re-evaluation (disable_monotonic_push), requiring bitwise-equal
// values and stores after every batch, and final values bitwise equal to
// a fresh run on the final snapshot. Adds each engine's edges_processed to
// `totals`.
template <typename Algo>
void ExpectSelectiveMatchesFullReevaluation(const Algo& algo, const EdgeList& full_graph,
                                            uint64_t seed, EdgeTotals* totals) {
  StreamSplit split = SplitForStreaming(full_graph, 0.5, seed + 1);
  MutableGraph g_selective(split.initial);
  MutableGraph g_full(split.initial);
  typename GraphBoltEngine<Algo>::Options options{.max_iterations = 256,
                                                  .run_to_convergence = true};
  GraphBoltEngine<Algo> selective(&g_selective, algo, options);
  options.disable_monotonic_push = true;
  GraphBoltEngine<Algo> full(&g_full, algo, options);
  selective.InitialCompute();
  full.InitialCompute();

  UpdateStream stream(split.held_back, seed + 2);
  for (int round = 0; round < 4; ++round) {
    const MutationBatch batch =
        stream.NextBatch(g_selective, {.size = 30, .add_fraction = 0.5});
    selective.ApplyMutations(batch);
    full.ApplyMutations(batch);
    totals->selective += selective.stats().edges_processed;
    totals->full += full.stats().edges_processed;
    ASSERT_TRUE(SameValueBits(selective.values(), full.values())) << "round " << round;
    ASSERT_EQ(StoreDiff(selective.store(), full.store()), "") << "round " << round;
  }
  MutableGraph g_fresh(g_selective.ToEdgeList());
  GraphBoltEngine<Algo> fresh(&g_fresh, algo, options);
  fresh.InitialCompute();
  EXPECT_TRUE(SameValueBits(selective.values(), fresh.values()));
}

template <typename MakeAlgo>
void SelectiveDifferentialAcrossSeeds(MakeAlgo make_algo) {
  ArenaWidthGuard guard;
  ThreadPool::SetNumThreads(2);
  EdgeTotals totals;
  for (const uint64_t seed : FuzzSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const EdgeList graph = GenerateRmat(600, 5000, {.seed = seed, .assign_random_weights = true});
    ExpectSelectiveMatchesFullReevaluation(make_algo(graph.num_vertices()), graph, seed, &totals);
  }
  EXPECT_LT(totals.selective, totals.full);
}

TEST(SelectiveReevaluation, SsspMatchesFullReevaluation) {
  SelectiveDifferentialAcrossSeeds([](VertexId) { return Sssp(0); });
}

TEST(SelectiveReevaluation, WidestPathMatchesFullReevaluation) {
  SelectiveDifferentialAcrossSeeds([](VertexId) { return WidestPath(0); });
}

TEST(SelectiveReevaluation, ConnectedComponentsMatchesFullReevaluation) {
  SelectiveDifferentialAcrossSeeds([](VertexId) { return ConnectedComponents{}; });
}

TEST(SelectiveReevaluation, MultiSourceReachMatchesFullReevaluation) {
  // OR is not selective: any deleted or bit-losing non-zero input re-pulls.
  SelectiveDifferentialAcrossSeeds([](VertexId n) {
    return MultiSourceReach({0, 1, 2, 3, 5, 8, 13, 21}, n);
  });
}

}  // namespace
}  // namespace graphbolt
