// Reproduces Table 6: execution times on the largest graph (Yahoo
// surrogate) across core counts. The paper compares 32 vs 96 cores on
// r5.24xlarge; the sweep varies the arena width {1, 2, 4} over the same
// harness, so on a machine with at least four cores every width gets real
// cores (on fewer, the wider rows time-share and show no scaling). The
// paper observes that GB-Reset gains more from added parallelism than
// GraphBolt, which has little work left to parallelize.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/algorithms/coem.h"
#include "src/algorithms/label_propagation.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/triangle_counting.h"
#include "src/core/graphbolt_engine.h"
#include "src/engine/ligra_engine.h"
#include "src/engine/reset_engine.h"
#include "src/parallel/thread_pool.h"

namespace graphbolt {
namespace {

struct Row {
  double ligra = 0.0;
  double reset = 0.0;
  double bolt = 0.0;
};

template <typename Algo>
Row RunRow(const StreamSplit& split, const Algo& algo, const std::vector<MutationBatch>& batches) {
  Row row;
  {
    MutableGraph graph(split.initial);
    LigraEngine<Algo> engine(&graph, algo);
    row.ligra = RunStreaming(engine, batches).avg_batch_seconds;
  }
  {
    MutableGraph graph(split.initial);
    ResetEngine<Algo> engine(&graph, algo);
    row.reset = RunStreaming(engine, batches).avg_batch_seconds;
  }
  {
    MutableGraph graph(split.initial);
    GraphBoltEngine<Algo> engine(&graph, algo);
    row.bolt = RunStreaming(engine, batches).avg_batch_seconds;
  }
  return row;
}

void Run() {
  PrintHeader(
      "Table 6: per-batch times (ms) on the Yahoo surrogate across thread\n"
      "counts (paper: 32 vs 96 cores; here: arena width 1/2/4).");

  StreamSplit split = MakeStream(kYahoo, /*weighted=*/true);
  const auto batches = MakeBatches(split, 2, {.size = 100, .add_fraction = 0.6}, 141);

  std::printf("%-6s %-8s %10s %10s %10s %9s %9s\n", "algo", "threads", "Ligra", "GB-Reset",
              "GraphBolt", "xLigra", "xReset");
  BenchJson json("table6_scaling");
  const size_t thread_counts[] = {1, 2, 4};
  auto sweep = [&](const char* name, auto make_algo) {
    for (const size_t threads : thread_counts) {
      ThreadPool::SetNumThreads(threads);
      const Row row = RunRow(split, make_algo(), batches);
      std::printf("%-6s %-8zu %10.2f %10.2f %10.2f %8.2fx %8.2fx\n", name, threads,
                  row.ligra * 1e3, row.reset * 1e3, row.bolt * 1e3, row.ligra / row.bolt,
                  row.reset / row.bolt);
      json.Row()
          .Str("algo", name)
          .Num("threads", static_cast<double>(threads))
          .Num("ligra_ms", row.ligra * 1e3)
          .Num("reset_ms", row.reset * 1e3)
          .Num("bolt_ms", row.bolt * 1e3)
          .Num("speedup_vs_ligra", row.ligra / row.bolt)
          .Num("speedup_vs_reset", row.reset / row.bolt);
    }
  };
  sweep("PR", [] { return PageRank(0.85, kBenchTolerance); });
  sweep("CoEM", [] { return CoEM(kYahoo.vertices, 0.08, 142, kBenchTolerance); });
  sweep("LP", [] { return LabelPropagation<2>(kYahoo.vertices, 0.1, 143, kBenchTolerance); });

  // Triangle counting (Ligra == GB-Reset).
  for (const size_t threads : thread_counts) {
    ThreadPool::SetNumThreads(threads);
    double reset_time = 0.0;
    double bolt_time = 0.0;
    {
      MutableGraph graph(split.initial);
      TriangleCountingResetEngine engine(&graph);
      reset_time = RunStreaming(engine, batches).avg_batch_seconds;
    }
    {
      MutableGraph graph(split.initial);
      TriangleCountingEngine engine(&graph);
      bolt_time = RunStreaming(engine, batches).avg_batch_seconds;
    }
    std::printf("%-6s %-8zu %10.2f %10.2f %10.2f %8.2fx %8.2fx\n", "TC", threads, reset_time * 1e3,
                reset_time * 1e3, bolt_time * 1e3, reset_time / bolt_time, reset_time / bolt_time);
    json.Row()
        .Str("algo", "TC")
        .Num("threads", static_cast<double>(threads))
        .Num("ligra_ms", reset_time * 1e3)
        .Num("reset_ms", reset_time * 1e3)
        .Num("bolt_ms", bolt_time * 1e3)
        .Num("speedup_vs_ligra", reset_time / bolt_time)
        .Num("speedup_vs_reset", reset_time / bolt_time);
  }
  ThreadPool::SetNumThreads(1);
  if (json.WriteFile(json.DefaultPath())) {
    std::printf("\nwrote %s\n", json.DefaultPath().c_str());
  }

  std::printf(
      "\nExpected shape (Table 6): GraphBolt fastest at every width; its\n"
      "speedup over GB-Reset is largest at low parallelism, since GB-Reset\n"
      "has more parallelizable work to recover (on real multi-core hardware\n"
      "added threads shrink the gap, as the paper reports).\n");
}

}  // namespace
}  // namespace graphbolt

int main() {
  graphbolt::Run();
  return 0;
}
