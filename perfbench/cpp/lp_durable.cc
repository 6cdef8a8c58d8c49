// lp-durable: closed-loop durable ingestion through the sharded driver,
// then a cold recovery.
//
// One producer Ingests through a 2-lane ShardedDriver running GraphBolt
// LabelPropagation with a Checkpointer attached: every batch is journaled,
// a checkpoint is written every kCadence batches. Gutters flush by size
// only, so batch boundaries are deterministic; the stream is trimmed so it
// ends with a WAL tail of kTail batches past the last checkpoint. Then a
// cold graph, engine and driver Recover() from the same directory. The
// fault layer carries much of the stream time and all of recovery; this is
// the only workload that exercises the shard layer's lanes and its
// lane-parallel lineage replay.
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>

#include "common.h"
#include "src/algorithms/label_propagation.h"
#include "src/core/graphbolt_engine.h"
#include "src/fault/checkpoint.h"
#include "src/graph/generators.h"
#include "src/parallel/thread_pool.h"
#include "src/shard/sharded_driver.h"

namespace perfbench {
namespace {

using graphbolt::EdgeMutation;
using graphbolt::MutableGraph;
using Algo = graphbolt::LabelPropagation<2>;
using Engine = graphbolt::GraphBoltEngine<Algo>;
using Driver = graphbolt::ShardedDriver<Engine>;
using Checkpointer = graphbolt::Checkpointer<Engine>;

// bench/harness.h's UK* surrogate with its fixed graph seed: the graph is the
// dataset, --seed picks the mutation stream.
constexpr graphbolt::VertexId kVertices = 16000;
constexpr graphbolt::EdgeIndex kEdges = 200000;
constexpr uint64_t kGraphSeed = 102;
constexpr size_t kLanes = 2;
constexpr size_t kBatch = 256;
constexpr uint64_t kCadence = 4;  // checkpoint every kCadence batches
constexpr uint64_t kTail = 3;     // WAL batches past the last checkpoint
constexpr size_t kStreamBatches = 64;
constexpr size_t kMinRounds = 3;
constexpr size_t kRecoveries = 2;  // cold recoveries per round
constexpr double kTolerance = 1e-4;
constexpr uint32_t kIterations = 10;

Algo MakeAlgo() { return Algo(kVertices, 0.1, kGraphSeed, kTolerance); }

// Every option with a GRAPHBOLT_* environment default is set here.
// Flushes are by size only and coalescing is off, so each lane's batches
// are fixed slices of its share of the stream.
graphbolt::DriverConfig PinnedConfig(const std::string& dir) {
  graphbolt::DriverConfig c;
  c.shards = kLanes;
  c.batch_size = kBatch;
  c.flush_interval_seconds = 3600.0;
  c.max_pending_batches = 4;
  c.overflow = graphbolt::OverflowPolicy::kBlock;
  c.coalesce = false;
  c.background_compaction = false;
  c.fast_path = false;
  c.async_mode = graphbolt::AsyncModePolicy::kOff;
  c.checkpoint_dir = dir;
  c.checkpoint_every = kCadence;
  c.scrub_interval_seconds = 0.0;
  return c;
}

Checkpointer::Options CheckpointOptions(const std::string& dir) {
  return {.directory = dir, .cadence_batches = kCadence};
}

size_t LaneOf(const EdgeMutation& m) { return m.src % kLanes; }

// Batches the driver will apply for this stream: each lane's share of the
// mutations, cut every kBatch, plus the partial remainder the final
// barrier flushes.
uint64_t PredictedBatches(const std::vector<EdgeMutation>& stream) {
  std::vector<size_t> per_lane(kLanes, 0);
  for (const EdgeMutation& m : stream) {
    ++per_lane[LaneOf(m)];
  }
  uint64_t batches = 0;
  for (const size_t n : per_lane) {
    batches += (n + kBatch - 1) / kBatch;
  }
  return batches;
}

struct DirBytes {
  double checkpoint = 0.0;  // the largest checkpoint file: one checkpoint
  double wal = 0.0;         // global journal plus lane lineages
};

DirBytes MeasureDir(const std::string& dir) {
  DirBytes bytes;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string ext = entry.path().extension().string();
    const auto size = static_cast<double>(entry.file_size());
    if (ext == ".ckpt") {
      bytes.checkpoint = std::max(bytes.checkpoint, size);
    } else if (ext == ".wal" && entry.path().filename() != "shed.wal") {
      bytes.wal += size;
    }
  }
  return bytes;
}

}  // namespace

PassResult RunLpDurable(const Args& args, Tracer* tracer) {
  const size_t width = graphbolt::ThreadPool::Instance().num_threads();
  const graphbolt::EdgeList full =
      graphbolt::GenerateRmat(kVertices, kEdges, {.seed = kGraphSeed});
  const graphbolt::StreamSplit split = graphbolt::SplitForStreaming(full, 0.5, kGraphSeed + 1);
  std::vector<EdgeMutation> stream =
      MakeMutationStream(split, kBatch * kStreamBatches, kBatch, args.seed);
  while (PredictedBatches(stream) % kCadence != kTail) {
    stream.pop_back();
  }
  const uint64_t expected_batches = PredictedBatches(stream);
  const std::string dir = OutputDir(args) + "/lp-durable-ckpt";
  Tracer::Buffer* buf = tracer != nullptr ? tracer->NewBuffer() : nullptr;

  PassResult result;
  result.headline = "ingest_mps";
  result.headline_higher_is_better = true;
  std::vector<std::map<std::string, double>> rounds;
  const double pass_start = Now();
  while (rounds.size() < kMinRounds || Now() - pass_start < args.seconds) {
    std::filesystem::remove_all(dir);
    ScopedSpan round_span(buf, "round", "bench");
    std::map<std::string, double> m;
    std::vector<Algo::Value> live_values;
    uint64_t live_edges = 0;

    // Promotion order as ShardedDriver's observer reports it.
    struct Promotion {
      double at;
      size_t lane;
      size_t size;
    };
    std::mutex promotions_mu;
    std::vector<Promotion> promotions;
    {
      const double setup_start = Now();
      std::unique_ptr<MutableGraph> graph;
      std::unique_ptr<Engine> engine;
      std::optional<Checkpointer> checkpointer;
      std::optional<Driver> driver;
      {
        ScopedSpan setup(buf, "setup", "bench", round_span.id());
        graph = std::make_unique<MutableGraph>(split.initial);
        engine = std::make_unique<Engine>(graph.get(), MakeAlgo(),
                                          Engine::Options{.max_iterations = kIterations});
        {
          ScopedSpan span(buf, "InitialCompute", "core", setup.id());
          engine->InitialCompute();
        }
        m["core.initial_compute_s"] = engine->stats().seconds;
        checkpointer.emplace(engine.get(), graph.get(), CheckpointOptions(dir));
        driver.emplace(engine.get(), PinnedConfig(dir), &*checkpointer);
        const double t = Now();
        {
          ScopedSpan span(buf, "CheckpointNow", "fault", setup.id());
          if (!driver->CheckpointNow()) {
            result.Fail("lp-durable: initial checkpoint failed");
          }
        }
        m["fault.initial_checkpoint_s"] = Now() - t;
      }
      m["setup_s"] = Now() - setup_start;
      driver->set_apply_observer([&](size_t lane, const graphbolt::MutationBatch& batch) {
        std::lock_guard<std::mutex> lock(promotions_mu);
        promotions.push_back({Now(), lane, batch.size()});
      });
      const graphbolt::EngineStats before = driver->stats();

      AppliedSampler sampler([&] { return driver->stats().batches_applied; },
                             [&] { return driver->pending_mutations(); }, 0.0005);
      std::vector<double> ingested(stream.size());
      const double first = Now();
      uint64_t refused = 0;
      {
        ScopedSpan stream_span(buf, "stream", "bench", round_span.id());
        refused = IngestAll(*driver, stream, buf, stream_span.id(), &ingested);
      }
      const double barrier_start = Now();
      {
        ScopedSpan span(buf, "PrepQuery(final barrier)", "driver", round_span.id());
        driver->PrepQuery();
      }
      const double done = Now();
      sampler.Stop();
      const graphbolt::EngineStats s = driver->stats();
      {
        ScopedSpan span(buf, "Stop", "driver", round_span.id());
        driver->Stop();
      }
      m["ingest_mps"] = static_cast<double>(stream.size()) / (done - first);
      m["driver.barrier_ms"] = (done - barrier_start) * 1e3;

      // Batch b of the visibility timeline is the b-th promotion; map each
      // mutation to it through its lane's batch sequence.
      std::vector<std::vector<uint32_t>> lane_batches(kLanes);
      for (size_t p = 0; p < promotions.size(); ++p) {
        lane_batches[promotions[p].lane].push_back(static_cast<uint32_t>(p));
      }
      std::vector<size_t> lane_seen(kLanes, 0);
      std::vector<uint32_t> batch_of(stream.size(), UINT32_MAX);
      for (size_t i = 0; i < stream.size(); ++i) {
        const size_t lane = LaneOf(stream[i]);
        const size_t j = lane_seen[lane]++ / kBatch;
        if (j < lane_batches[lane].size()) {
          batch_of[i] = lane_batches[lane][j];
        }
      }
      RecordFreshness("lp-durable",
                      FreshnessFromBatches(ingested, batch_of, sampler.visible_at()),
                      rounds.empty(), &result, &m);
      if (buf != nullptr) {
        for (const Promotion& p : promotions) {
          buf->instants.push_back({"promote", "shard", p.at, p.lane, p.size});
        }
      }

      result.tally.mutations += stream.size();
      result.tally.refused += refused;
      result.tally.dropped += s.mutations_dropped;
      result.tripwire["driver.batches"].push_back(s.batches_applied);
      if (s.batches_applied != expected_batches) {
        result.Fail("lp-durable: " + std::to_string(s.batches_applied) +
                    " batches applied, size-only flushing predicts " +
                    std::to_string(expected_batches));
      }

      const double checkpoints =
          static_cast<double>(s.checkpoints_written - before.checkpoints_written);
      const double checkpoint_s = s.checkpoint_seconds - before.checkpoint_seconds;
      RecordDriverStats(s, stream.size(), done - first, &m);
      m["shard.batches_staged"] = static_cast<double>(s.shard_batches_staged);
      m["shard.cross_shard_frac"] =
          static_cast<double>(s.cross_shard_mutations) / static_cast<double>(stream.size());
      m["shard.lane_wal_appends"] = static_cast<double>(s.shard_wal_appends);
      m["fault.checkpoints"] = checkpoints;
      m["fault.checkpoint_s"] = checkpoint_s;
      m["fault.checkpoint_ms_mean"] = checkpoints > 0 ? checkpoint_s / checkpoints * 1e3 : 0.0;
      m["fault.wal_appends"] = static_cast<double>(s.wal_appends - before.wal_appends);
      m["fault.wal_retries"] = static_cast<double>(s.wal_retries - before.wal_retries);
      const DirBytes bytes = MeasureDir(dir);
      m["fault.checkpoint_bytes"] = bytes.checkpoint;
      m["fault.wal_bytes"] = bytes.wal;
      m["loadgen.backlog_max"] = static_cast<double>(sampler.backlog_max());

      live_values = engine->values();
      live_edges = graph->num_edges();
    }  // the live driver, checkpointer, engine and graph are gone

    // Traced pass only: RestoreLatest alone on a cold engine, to split
    // recovery into restore and replay.
    double restore_s = 0.0;
    if (buf != nullptr) {
      MutableGraph probe_graph;
      Engine probe(&probe_graph, MakeAlgo(), {.max_iterations = kIterations});
      Checkpointer probe_checkpointer(&probe, &probe_graph, CheckpointOptions(dir));
      uint64_t seq = 0;
      const double t = Now();
      {
        ScopedSpan span(buf, "RestoreLatest", "fault", round_span.id());
        if (!probe_checkpointer.RestoreLatest(&seq)) {
          result.Fail("lp-durable: RestoreLatest found no checkpoint");
        }
      }
      restore_s = Now() - t;
    }

    // Cold recovery: a fresh graph, engine, checkpointer and driver over
    // the same directory. Recovery rewrites the directory (a checkpoint at
    // the recovered frontier), so all but the last of kRecoveries run on a
    // fresh copy of it; the round reports their mean.
    double recover_total = 0.0;
    for (size_t r = 0; r < kRecoveries; ++r) {
      std::string from = dir;
      if (r + 1 < kRecoveries) {
        from = dir + "-copy";
        std::filesystem::remove_all(from);
        std::filesystem::copy(dir, from, std::filesystem::copy_options::recursive);
      }
      MutableGraph cold_graph;
      Engine cold(&cold_graph, MakeAlgo(), {.max_iterations = kIterations});
      Checkpointer cold_checkpointer(&cold, &cold_graph, CheckpointOptions(from));
      Driver cold_driver(&cold, PinnedConfig(from), &cold_checkpointer);
      const double t = Now();
      bool recovered = false;
      {
        ScopedSpan span(buf, "Recover", "fault", round_span.id());
        recovered = cold_driver.Recover();
      }
      recover_total += Now() - t;
      const graphbolt::EngineStats cs = cold_driver.stats();
      {
        ScopedSpan span(buf, "Stop", "driver", round_span.id());
        cold_driver.Stop();
      }
      result.tripwire["fault.replayed_batches"].push_back(cs.batches_replayed);
      m["fault.replayed_batches"] = static_cast<double>(cs.batches_replayed);
      m["fault.lane_batches_replayed"] = static_cast<double>(cs.lane_batches_replayed);
      if (cs.batches_replayed != kTail) {
        result.Fail("lp-durable: recovery replayed " + std::to_string(cs.batches_replayed) +
                    " batches, the stream leaves a tail of " + std::to_string(kTail));
      }

      // Output check, graphbolt_cli --verify-recovery's rule: bitwise at
      // arena width 1, within 1e-9 relative above it; equal edge counts.
      const double rel = width == 1 ? 0.0 : 1e-9;
      size_t mismatches = 0;
      const auto& values = cold.values();
      if (!recovered || values.size() != live_values.size()) {
        mismatches = live_values.size();
      } else {
        for (size_t v = 0; v < values.size(); ++v) {
          for (size_t f = 0; f < values[v].size(); ++f) {
            mismatches += ScalarClose(values[v][f], live_values[v][f], rel) ? 0 : 1;
          }
        }
      }
      if (mismatches > 0 || cold_graph.num_edges() != live_edges) {
        result.Fail("lp-durable: recovered state differs from the live one (" +
                    std::to_string(mismatches) + " value mismatches, " +
                    std::to_string(cold_graph.num_edges()) + " vs " +
                    std::to_string(live_edges) + " edges)");
      }
    }
    std::filesystem::remove_all(dir + "-copy");
    m["recover_s"] = recover_total / kRecoveries;
    if (buf != nullptr) {
      m["fault.restore_s"] = restore_s;
      m["fault.replay_s"] = m["recover_s"] - restore_s;
    }
    rounds.push_back(std::move(m));
  }
  std::filesystem::remove_all(dir);

  if (buf != nullptr) {
    result.per_layer["driver.ingest_call_p99_us"] = Percentile(SpanMicros(*buf, "Ingest"), 0.99);
  }
  SummarizeRounds(rounds, &result);
  std::printf("lp-durable: %zu rounds of %zu mutations (%llu batches, checkpoint every %llu)\n",
              rounds.size(), stream.size(), static_cast<unsigned long long>(expected_batches),
              static_cast<unsigned long long>(kCadence));
  return result;
}

}  // namespace perfbench
