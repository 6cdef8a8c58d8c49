#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/util/logging.h"

namespace perfbench {

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<graphbolt::EdgeMutation> MakeMutationStream(const graphbolt::StreamSplit& split,
                                                        size_t count, size_t chunk,
                                                        uint64_t seed) {
  graphbolt::MutableGraph shadow(split.initial);
  graphbolt::UpdateStream stream(split.held_back, seed);
  std::vector<graphbolt::EdgeMutation> out;
  out.reserve(count);
  while (out.size() < count) {
    const graphbolt::MutationBatch batch =
        stream.NextBatch(shadow, {.size = std::min(chunk, count - out.size()),
                                  .add_fraction = 0.5,
                                  .targeting = graphbolt::MutationTargeting::kUniform});
    GB_CHECK(!batch.empty()) << "mutation stream exhausted";
    shadow.ApplyBatch(batch);
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

AppliedSampler::AppliedSampler(std::function<uint64_t()> applied,
                               std::function<size_t()> pending, double period_seconds)
    : applied_(std::move(applied)), pending_(std::move(pending)), period_(period_seconds) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      Poll();
      std::this_thread::sleep_for(std::chrono::duration<double>(period_));
    }
  });
}

void AppliedSampler::Stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    Poll();
  }
}

void AppliedSampler::Poll() {
  const uint64_t applied = applied_();
  const double now = Now();
  while (visible_at_.size() < applied) {
    visible_at_.push_back(now);
  }
  backlog_max_ = std::max(backlog_max_, pending_());
}

void SummarizeRounds(const std::vector<std::map<std::string, double>>& rounds,
                     PassResult* result) {
  for (const auto& [name, unused] : rounds.front()) {
    std::vector<double> values;
    for (const auto& round : rounds) {
      values.push_back(round.at(name));
    }
    const bool end_to_end = name == "setup_s" || name == "ingest_mps" || name == "recover_s" ||
                            name == "fresh_p50_ms" || name == "fresh_p99_ms";
    (end_to_end ? result->end_to_end : result->per_layer)[name] = Median(values);
  }
}

void RecordDriverStats(const graphbolt::EngineStats& s, size_t mutations, double wall,
                       std::map<std::string, double>* m) {
  const auto count = [](uint64_t c) { return static_cast<double>(c); };
  const double batches = count(std::max<uint64_t>(1, s.batches_applied));
  auto& r = *m;
  r["core.refine_s"] = s.seconds;
  r["core.refine_ms_per_batch"] = s.seconds / batches * 1e3;
  r["core.edges_processed"] = count(s.edges_processed);
  r["core.iterations"] = s.iterations;
  r["graph.splice_s"] = s.mutation_seconds;
  r["graph.splice_us_per_mutation"] =
      s.mutation_seconds / count(std::max<size_t>(1, mutations)) * 1e6;
  r["graph.adaptive_rebuilds"] = count(s.adaptive_rebuilds);
  r["parallel.tasks_forked"] = count(s.tasks_forked);
  r["parallel.steal_frac"] =
      s.tasks_forked == 0 ? 0.0 : count(s.tasks_stolen) / count(s.tasks_forked);
  r["parallel.inline_runs"] = count(s.inline_runs);
  r["driver.queue_wait_s"] = s.queue_wait_seconds;
  r["driver.batches"] = count(s.batches_applied);
  // Fast-path safe applies never form a batch.
  r["driver.mutations_per_batch"] = count(s.mutations_enqueued - s.fastpath_safe_applied) / batches;
  r["driver.flush_to_apply_ms"] = s.flush_latency_seconds / batches * 1e3;
  r["driver.worker_busy_frac"] = (s.seconds + s.mutation_seconds) / wall;
}

void RecordFreshness(const std::string& workload, std::vector<double> seconds, bool first_round,
                     PassResult* result, std::map<std::string, double>* m) {
  for (double& f : seconds) {
    f *= 1e3;
  }
  (*m)["fresh_p50_ms"] = Percentile(seconds, 0.5);
  (*m)["fresh_p99_ms"] = Percentile(seconds, 0.99);
  if (first_round) {
    PrintTailSupport(workload + " freshness per round", seconds.size());
  }
  if (!TailSupported(seconds.size(), 0.99)) {
    result->Fail(workload + ": too few freshness samples for p99");
  }
}

std::vector<double> SpanMicros(const Tracer::Buffer& buffer, std::string_view name) {
  std::vector<double> micros;
  for (const Span& span : buffer.spans) {
    if (name == span.name) {
      micros.push_back((span.end - span.start) * 1e6);
    }
  }
  return micros;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

void PrintStamp(const Args& args, size_t arena_width) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("machine: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s arena_width=%zu seed=%llu\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(), PERFBENCH_COMPILER,
              build_type.c_str(), arena_width, static_cast<unsigned long long>(args.seed));
  if (build_type != "Release") {
    std::printf("WARNING: %s build; timings are not comparable with Release results\n",
                build_type.c_str());
  }
}

void PrintTailSupport(const std::string& what, size_t samples) {
  std::printf("%s: %zu samples, highest percentile with ten samples beyond it: p%g\n",
              what.c_str(), samples, HighestSupportedPercentile(samples) * 100);
}

std::string OutputDir(const Args& args) {
  std::filesystem::create_directories(args.out);
  return args.out;
}

}  // namespace perfbench
