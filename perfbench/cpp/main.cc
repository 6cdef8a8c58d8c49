// perfbench_workloads: runs one workload of the repository benchmark.
//
//   perfbench_workloads --workload pr-bulk|sssp-serve|lp-durable --seed N
//                       --seconds S --trace 0|1 [--out DIR]
//
// An untraced pass gives the end-to-end metrics. With --trace 1 the run is
// split into an untraced and a traced pass of half the length each; the
// traced pass gives the per-layer metrics, writes its spans to
// DIR/trace-<workload>.json, and trace.overhead_frac compares its
// headline metric with the untraced pass. The last stdout line is
// "RESULT {json}" for perfbench/run.py. Exits 1 when an output check or the
// determinism tripwire fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "src/parallel/thread_pool.h"
#include "src/util/logging.h"

namespace perfbench {
namespace {

struct WorkloadSpec {
  const char* name;
  Workload run;
  // TaskArena width. Load-generator threads + driver threads + width stay
  // within 4 cores: pr-bulk 1 producer + 1 worker + 2; sssp-serve
  // 1 producer + 1 reader + 1 worker + 1; lp-durable 1 producer + 2 lanes + 1.
  size_t arena_width;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"pr-bulk", RunPrBulk, 2},
    {"sssp-serve", RunSsspServe, 1},
    {"lp-durable", RunLpDurable, 1},
};

constexpr const char* kEndToEnd[] = {"setup_s",      "ingest_mps", "fresh_p50_ms",
                                     "fresh_p99_ms", "recover_s",  "peak_rss_mb"};

// Every workload reports every per-layer metric; one that does not apply to
// a workload (a fault counter on pr-bulk) reads 0.
constexpr const char* kPerLayer[] = {
    "core.refine_s",
    "core.refine_ms_per_batch",
    "core.edges_processed",
    "core.iterations",
    "core.initial_compute_s",
    "core.thread_speedup",
    "core.speedup_vs_ligra",
    "graph.splice_s",
    "graph.splice_us_per_mutation",
    "graph.adaptive_rebuilds",
    "parallel.tasks_forked",
    "parallel.steal_frac",
    "parallel.inline_runs",
    "driver.ingest_call_p99_us",
    "driver.queue_wait_s",
    "driver.barrier_ms",
    "driver.batches",
    "driver.mutations_per_batch",
    "driver.flush_to_apply_ms",
    "driver.worker_busy_frac",
    "driver.fastpath_safe_frac",
    "driver.query_p50_ms",
    "driver.query_p90_ms",
    "shard.batches_staged",
    "shard.cross_shard_frac",
    "shard.lane_wal_appends",
    "fault.checkpoints",
    "fault.checkpoint_ms_mean",
    "fault.checkpoint_s",
    "fault.wal_appends",
    "fault.wal_retries",
    "fault.checkpoint_bytes",
    "fault.wal_bytes",
    "fault.initial_checkpoint_s",
    "fault.restore_s",
    "fault.replay_s",
    "fault.replayed_batches",
    "fault.lane_batches_replayed",
    "loadgen.late_p99_ms",
    "loadgen.backlog_max",
    "trace.overhead_frac",
    "trace.bench_self_s",
    "trace.driver_self_s",
    "trace.core_self_s",
    "trace.fault_self_s",
    "trace.engine_self_s",
    "failed_frac",
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_workloads --workload pr-bulk|sssp-serve|lp-durable "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--out") {
      args.out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return args;
}

void PrintJsonMap(const std::map<std::string, double>& metrics) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  graphbolt::SetLogLevel(graphbolt::LogLevel::kWarning);
  graphbolt::ThreadPool::SetNumThreads(spec->arena_width);
  PrintStamp(args, spec->arena_width);

  // A traced run splits --seconds between its two passes, so it takes as
  // long as an untraced one.
  Args pass_args = args;
  if (args.trace) {
    pass_args.seconds = args.seconds / 2;
  }
  PassResult result = spec->run(pass_args, nullptr);
  result.end_to_end["peak_rss_mb"] = PeakRssMb();
  std::map<std::string, double> per_layer;
  if (args.trace) {
    Tracer tracer;
    PassResult traced = spec->run(pass_args, &tracer);
    // One file per workload: a trace is tens of MB, so the latest replaces
    // the previous one.
    const std::string path = OutputDir(args) + "/trace-" + args.workload + ".json";
    if (!tracer.WriteJson(path)) {
      result.Fail("cannot write " + path);
    }
    std::printf("trace: %s\n", path.c_str());
    for (const auto& [layer, seconds] : SelfTimeByLayer(tracer.Spans())) {
      traced.per_layer["trace." + layer + "_self_s"] = seconds;
    }
    const double untraced_headline = result.end_to_end.at(result.headline);
    const double traced_headline = traced.end_to_end.at(result.headline);
    traced.per_layer["trace.overhead_frac"] =
        result.headline_higher_is_better ? 1.0 - traced_headline / untraced_headline
                                         : traced_headline / untraced_headline - 1.0;
    per_layer = traced.per_layer;
    for (auto& [name, values] : traced.tripwire) {
      auto& all = result.tripwire[name];
      all.insert(all.end(), values.begin(), values.end());
    }
    result.check_failures.insert(result.check_failures.end(), traced.check_failures.begin(),
                                 traced.check_failures.end());
    result.tally += traced.tally;
  }

  // Determinism tripwire: these counts repeat exactly for a fixed seed.
  for (const auto& [name, values] : result.tripwire) {
    for (const uint64_t v : values) {
      if (v != values.front()) {
        result.Fail("determinism: " + name + " drifted across repeats (" +
                    std::to_string(values.front()) + " vs " + std::to_string(v) + ")");
        break;
      }
    }
    std::printf("tripwire: %s = %llu over %zu repeats\n", name.c_str(),
                static_cast<unsigned long long>(values.front()), values.size());
  }

  std::map<std::string, double> end_to_end;
  for (const char* name : kEndToEnd) {
    const auto it = result.end_to_end.find(name);
    if (it == result.end_to_end.end() || !std::isfinite(it->second)) {
      result.Fail(std::string("end-to-end metric ") + name + " missing or not finite");
    } else {
      end_to_end[name] = it->second;
    }
  }
  if (args.trace) {
    per_layer["failed_frac"] = result.tally.fraction();
    std::map<std::string, double> reported;
    for (const char* name : kPerLayer) {
      const auto it = per_layer.find(name);
      reported[name] = it != per_layer.end() ? it->second : 0.0;
      if (!std::isfinite(reported[name])) {
        result.Fail(std::string("per-layer metric ") + name + " is not finite");
        reported[name] = 0.0;
      }
    }
    for (const auto& [name, value] : per_layer) {
      if (!reported.count(name)) {
        result.Fail("per-layer metric " + name + " is not in the benchmark's list");
      }
    }
    per_layer = reported;
  }

  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("checks: %s; failed_frac = %.6g (%llu of %llu attempts)\n",
              result.check_failures.empty() ? "all passed" : "FAILED", result.tally.fraction(),
              static_cast<unsigned long long>(result.tally.failed()),
              static_cast<unsigned long long>(result.tally.attempted()));
  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"end_to_end\": ",
              result.check_failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(result.tally.attempted()),
              static_cast<unsigned long long>(result.tally.failed()));
  PrintJsonMap(end_to_end);
  std::printf(", \"per_layer\": ");
  PrintJsonMap(per_layer);
  std::printf("}\n");
  std::fflush(stdout);
  return result.check_failures.empty() ? 0 : 1;
}
