// sssp-serve: open-loop single-update serving with concurrent readers.
//
// One producer sends single mutations through IngestFast (fast path on) at
// a fixed offered rate, from a 50/50 stream on a weighted TW*-scale graph,
// into a StreamDriver running GraphBolt SSSP to convergence. One reader
// issues QuerySnapshot in a closed loop with a fixed think time. Batches
// shrink until the worker is always busy, so per-batch fixed cost, the
// barrier and the fast path set the latency here, not bulk refinement: this
// is the non-decomposable min re-evaluation path of the core layer.
#include <memory>
#include <optional>
#include <thread>

#include "common.h"
#include "src/algorithms/sssp.h"
#include "src/core/graphbolt_engine.h"
#include "src/driver/stream_driver.h"
#include "src/engine/ligra_engine.h"
#include "src/graph/generators.h"
#include "src/parallel/thread_pool.h"

namespace perfbench {
namespace {

using graphbolt::EdgeMutation;
using graphbolt::MutableGraph;
using Engine = graphbolt::GraphBoltEngine<graphbolt::Sssp>;
using Driver = graphbolt::StreamDriver<Engine>;

// bench/harness.h's TW* surrogate, weighted, with its fixed graph seed: the
// graph is the dataset, --seed picks the mutation stream.
constexpr graphbolt::VertexId kVertices = 20000;
constexpr graphbolt::EdgeIndex kEdges = 260000;
constexpr uint64_t kGraphSeed = 103;
constexpr double kOfferedRate = 1000.0;  // mutations per second
constexpr double kThinkSeconds = 0.005;  // reader pause between queries
// A run is rounds of kRoundSeconds, each a fresh set-up fed its own stream:
// SSSP refinement cost depends strongly on which edges a stream deletes, so
// distinct streams per round average that out within a run. Metrics are
// medians over rounds.
constexpr double kRoundSeconds = 2.5;
constexpr size_t kMinRounds = 3;
constexpr size_t kRestarts = 5;  // restarts per round (recover_s)
constexpr uint32_t kMaxIterations = 1u << 20;  // run to convergence

Engine::Options EngineOptions() {
  return {.max_iterations = kMaxIterations, .run_to_convergence = true};
}

// Every option with a GRAPHBOLT_* environment default is set here. A stale
// gutter flushes after 5 ms, so under the offered rate batches stay small.
Driver::Options PinnedOptions() {
  Driver::Options o;
  o.batch_size = 1024;
  o.flush_interval_seconds = 0.005;
  o.max_pending_batches = 4;
  o.overflow = graphbolt::OverflowPolicy::kBlock;
  o.coalesce = true;
  o.background_compaction = false;
  o.fast_path = true;
  o.async_mode = graphbolt::AsyncModePolicy::kOff;
  return o;
}

void SleepUntil(double at) {
  const double wait = at - Now();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

}  // namespace

PassResult RunSsspServe(const Args& args, Tracer* tracer) {
  const graphbolt::EdgeList full = graphbolt::GenerateRmat(
      kVertices, kEdges, {.seed = kGraphSeed, .assign_random_weights = true});
  const graphbolt::StreamSplit split = graphbolt::SplitForStreaming(full, 0.5, kGraphSeed + 1);
  const size_t num_rounds =
      std::max(kMinRounds, static_cast<size_t>(std::lround(args.seconds / kRoundSeconds)));
  const double round_seconds = args.seconds / static_cast<double>(num_rounds);
  const auto count = static_cast<size_t>(kOfferedRate * round_seconds) + 1;
  std::vector<std::vector<EdgeMutation>> streams;
  for (size_t round = 0; round < num_rounds; ++round) {
    streams.push_back(MakeMutationStream(split, count, 64, args.seed * 1000 + round));
  }
  // The source is the initial graph's largest out-hub, so most of the
  // graph is reachable.
  graphbolt::VertexId source = 0;
  {
    std::vector<size_t> degree(kVertices, 0);
    for (const graphbolt::Edge& e : split.initial.edges()) {
      ++degree[e.src];
    }
    source = static_cast<graphbolt::VertexId>(std::max_element(degree.begin(), degree.end()) -
                                              degree.begin());
  }
  const graphbolt::Sssp algo(source);
  Tracer::Buffer* buf = tracer != nullptr ? tracer->NewBuffer() : nullptr;
  Tracer::Buffer* reader_buf = tracer != nullptr ? tracer->NewBuffer() : nullptr;

  PassResult result;
  result.headline = "fresh_p50_ms";
  result.headline_higher_is_better = false;
  std::vector<std::map<std::string, double>> rounds;
  std::vector<double> query_ms;
  size_t unobserved_total = 0;
  for (size_t round = 0; round < num_rounds; ++round) {
    const std::vector<EdgeMutation>& stream = streams[round];
    ScopedSpan round_span(buf, "round", "bench");
    std::map<std::string, double> m;

    const double setup_start = Now();
    std::unique_ptr<MutableGraph> graph;
    std::unique_ptr<Engine> engine;
    std::optional<Driver> driver;
    {
      ScopedSpan setup(buf, "setup", "bench", round_span.id());
      graph = std::make_unique<MutableGraph>(split.initial);
      engine = std::make_unique<Engine>(graph.get(), algo, EngineOptions());
      {
        ScopedSpan span(buf, "InitialCompute", "core", setup.id());
        engine->InitialCompute();
      }
      m["core.initial_compute_s"] = engine->stats().seconds;
      driver.emplace(engine.get(), PinnedOptions());
    }
    m["setup_s"] = Now() - setup_start;

    // Reader: closed loop of QuerySnapshot with a think time, until the
    // producer is done.
    std::atomic<bool> producer_done{false};
    std::vector<QueryWindow> queries;
    size_t backlog_max = 0;
    uint64_t unhealthy = 0;
    uint64_t degraded = 0;
    uint64_t bad_snapshots = 0;
    std::thread reader([&] {
      while (!producer_done.load(std::memory_order_acquire)) {
        backlog_max = std::max(backlog_max, driver->pending_mutations());
        QueryWindow q;
        q.start = Now();
        std::vector<double> snapshot;
        {
          ScopedSpan span(reader_buf, "QuerySnapshot", "driver", round_span.id(),
                          queries.size());
          snapshot = driver->QuerySnapshot();
        }
        q.end = Now();
        unhealthy += driver->healthy() ? 0 : 1;
        degraded += driver->degraded() ? 1 : 0;
        bad_snapshots += snapshot.size() == kVertices ? 0 : 1;
        queries.push_back(q);
        std::this_thread::sleep_for(std::chrono::duration<double>(kThinkSeconds));
      }
    });

    // Producer: open loop on this thread, charged from each due time.
    const double start = Now() + 0.01;
    const OpenLoopSchedule schedule(start, kOfferedRate);
    std::vector<double> due;
    std::vector<double> ingested;
    std::vector<double> late_ms;
    uint64_t refused = 0;
    for (size_t i = 0; i < stream.size() && schedule.DueAt(i) < start + round_seconds; ++i) {
      SleepUntil(schedule.DueAt(i));
      const double sent = Now();
      late_ms.push_back(schedule.Lateness(i, sent) * 1e3);
      bool ok = false;
      {
        ScopedSpan span(buf, "IngestFast", "driver", round_span.id(), i);
        ok = driver->IngestFast(stream[i]);
      }
      refused += ok ? 0 : 1;
      due.push_back(schedule.DueAt(i));
      ingested.push_back(Now());
    }
    producer_done.store(true, std::memory_order_release);
    reader.join();
    const double barrier_start = Now();
    {
      ScopedSpan span(buf, "PrepQuery(final barrier)", "driver", round_span.id());
      driver->PrepQuery();
    }
    const double done = Now();
    const graphbolt::EngineStats s = driver->stats();
    {
      ScopedSpan span(buf, "Stop", "driver", round_span.id());
      driver->Stop();
    }

    size_t unobserved = 0;
    RecordFreshness("sssp-serve", FreshnessFromQueries(due, ingested, queries, &unobserved),
                    rounds.empty(), &result, &m);
    unobserved_total += unobserved;
    for (const QueryWindow& q : queries) {
      query_ms.push_back((q.end - q.start) * 1e3);
    }

    result.tally.mutations += ingested.size();
    result.tally.queries += queries.size();
    result.tally.refused += refused;
    result.tally.dropped += s.mutations_dropped;
    result.tally.unhealthy_queries += unhealthy;
    result.tally.degraded_queries += degraded;
    if (unhealthy + degraded + bad_snapshots > 0) {
      result.Fail("sssp-serve: " + std::to_string(unhealthy + degraded + bad_snapshots) +
                  " queries were not exact snapshots of a healthy driver");
    }

    // Output check: bitwise equal to from-scratch Ligra on the final
    // snapshot. Then a restart: rebuild from the final edges and recompute.
    graphbolt::LigraEngine<graphbolt::Sssp> ligra(
        graph.get(), algo, {.max_iterations = kMaxIterations, .run_to_convergence = true});
    const double ligra_start = Now();
    {
      ScopedSpan span(buf, "Ligra InitialCompute", "engine", round_span.id());
      ligra.InitialCompute();
    }
    const double ligra_s = Now() - ligra_start;
    if (engine->values() != ligra.values()) {
      result.Fail("sssp-serve: served values differ from from-scratch Ligra");
    }
    const graphbolt::EdgeList final_edges = graph->ToEdgeList();
    double restart_total = 0.0;
    for (size_t r = 0; r < kRestarts; ++r) {
      graphbolt::EdgeList edges = final_edges;
      const double restart_start = Now();
      ScopedSpan span(buf, "restart", "bench", round_span.id());
      MutableGraph cold_graph(std::move(edges));
      Engine cold(&cold_graph, algo, EngineOptions());
      {
        ScopedSpan compute(buf, "InitialCompute", "core", span.id());
        cold.InitialCompute();
      }
      restart_total += Now() - restart_start;
      if (cold.values() != ligra.values()) {
        result.Fail("sssp-serve: restarted values differ from from-scratch Ligra");
      }
    }
    m["recover_s"] = restart_total / kRestarts;

    const double wall = done - start;
    m["ingest_mps"] = static_cast<double>(ingested.size() - refused) / wall;
    RecordDriverStats(s, ingested.size(), wall, &m);
    m["core.speedup_vs_ligra"] = ligra_s * 1e3 / m["core.refine_ms_per_batch"];
    m["driver.barrier_ms"] = (done - barrier_start) * 1e3;
    m["driver.fastpath_safe_frac"] = static_cast<double>(s.fastpath_safe_applied) /
                                     static_cast<double>(std::max<size_t>(1, ingested.size()));
    m["loadgen.late_p99_ms"] = Percentile(late_ms, 0.99);
    m["loadgen.backlog_max"] = static_cast<double>(backlog_max);
    rounds.push_back(std::move(m));
  }

  SummarizeRounds(rounds, &result);
  // Queries are pooled: one round holds too few for a p90.
  result.per_layer["driver.query_p50_ms"] = Percentile(query_ms, 0.5);
  result.per_layer["driver.query_p90_ms"] = Percentile(query_ms, 0.9);
  PrintTailSupport("sssp-serve queries, pooled", query_ms.size());
  if (!TailSupported(query_ms.size(), 0.9)) {
    result.Fail("sssp-serve: too few queries for p90");
  }
  if (buf != nullptr) {
    result.per_layer["driver.ingest_call_p99_us"] =
        Percentile(SpanMicros(*buf, "IngestFast"), 0.99);
  }
  std::printf("sssp-serve: %zu rounds of %.1f s at %.0f mutations/s, %zu queries, "
              "%zu updates after a round's last query\n",
              rounds.size(), round_seconds, kOfferedRate, query_ms.size(), unobserved_total);
  return result;
}

}  // namespace perfbench
