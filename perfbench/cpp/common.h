// Shared pieces of the three workloads: arguments, the per-pass result,
// input generation, the closed-loop visibility sampler, output checks and
// the machine stamp.
#ifndef PERFBENCH_CPP_COMMON_H_
#define PERFBENCH_CPP_COMMON_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/engine/stats.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/mutation.h"
#include "src/stream/update_stream.h"
#include "bench_stats.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
};

// Seconds on one steady clock shared by every thread of the process.
double Now();

// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

// What one pass of a workload measured. End-to-end metrics come from
// untraced passes only; per-layer metrics from the traced pass.
struct PassResult {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  FailureTally tally;
  std::vector<std::string> check_failures;
  // Counts that must repeat exactly for a fixed seed: name -> one value
  // per round. Any two differing values are reported as a defect.
  std::map<std::string, std::vector<uint64_t>> tripwire;
  // The end-to-end metric trace.overhead_frac compares, and whether a
  // higher value is better.
  std::string headline;
  bool headline_higher_is_better = true;

  void Fail(const std::string& what) {
    check_failures.push_back(what);
    ++tally.failed_checks;
  }
};

using Workload = PassResult (*)(const Args& args, Tracer* tracer);
PassResult RunPrBulk(const Args& args, Tracer* tracer);
PassResult RunSsspServe(const Args& args, Tracer* tracer);
PassResult RunLpDurable(const Args& args, Tracer* tracer);

// Pre-generates `count` mutations (a 50/50 add/delete uniform stream) in
// chunks of `chunk` against an evolving shadow copy of the initial graph,
// so every deletion names an edge present when it is applied in order.
std::vector<graphbolt::EdgeMutation> MakeMutationStream(const graphbolt::StreamSplit& split,
                                                        size_t count, size_t chunk,
                                                        uint64_t seed);

// Closed-loop producer: Ingests `stream` in order, stamping each call's
// start into (*ingested)[i]; with tracing on, one "Ingest" span per
// mutation. Returns how many mutations the driver refused.
template <typename Driver>
uint64_t IngestAll(Driver& driver, const std::vector<graphbolt::EdgeMutation>& stream,
                   Tracer::Buffer* buf, uint64_t parent_span, std::vector<double>* ingested) {
  uint64_t refused = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    (*ingested)[i] = Now();
    ScopedSpan span(buf, "Ingest", "driver", parent_span, i);
    refused += driver.Ingest(stream[i]) ? 0 : 1;
  }
  return refused;
}

// The per-layer metrics every workload derives from a driver's cumulative
// stats() over one round: core refinement, graph splice, scheduler and
// driver counters. `mutations` is the round's ingest count, `wall` its
// stream time (first ingest to the final barrier's return).
void RecordDriverStats(const graphbolt::EngineStats& s, size_t mutations, double wall,
                       std::map<std::string, double>* m);

// Records one round's freshness samples (seconds) as fresh_p50_ms and
// fresh_p99_ms in *m; fails the run when they cannot support a p99. States
// the sample count on the first round.
void RecordFreshness(const std::string& workload, std::vector<double> seconds, bool first_round,
                     PassResult* result, std::map<std::string, double>* m);

// Polls a driver's public counters from its own thread: the time the
// applied-batch count first reached k + 1 (batch k became visible) and the
// largest gutter backlog seen. It sleeps between polls, so it costs the
// pipeline a mutex acquisition per poll and no core.
class AppliedSampler {
 public:
  AppliedSampler(std::function<uint64_t()> applied, std::function<size_t()> pending,
                 double period_seconds);
  ~AppliedSampler() { Stop(); }
  AppliedSampler(const AppliedSampler&) = delete;
  AppliedSampler& operator=(const AppliedSampler&) = delete;

  // Joins the polling thread after one last poll.
  void Stop();
  const std::vector<double>& visible_at() const { return visible_at_; }
  size_t backlog_max() const { return backlog_max_; }

 private:
  void Poll();

  std::function<uint64_t()> applied_;
  std::function<size_t()> pending_;
  double period_;
  std::vector<double> visible_at_;
  size_t backlog_max_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Medians over rounds: setup_s, ingest_mps, fresh_p50_ms, fresh_p99_ms and
// recover_s go to result->end_to_end, every other name to result->per_layer.
void SummarizeRounds(const std::vector<std::map<std::string, double>>& rounds,
                     PassResult* result);

// Durations, in microseconds, of the spans called `name` in `buffer`.
std::vector<double> SpanMicros(const Tracer::Buffer& buffer, std::string_view name);

// Relative closeness with graphbolt_cli --verify-recovery's rule: rel = 0
// demands bitwise equality.
inline bool ScalarClose(double a, double b, double rel) {
  if (a == b) {
    return true;
  }
  const double diff = std::fabs(a - b);
  return diff <= rel * std::max(std::fabs(a), std::fabs(b));
}

// "name=value unit" lines and the machine stamp on stdout.
void PrintStamp(const Args& args, size_t arena_width);

// States a percentile's sample count and the highest percentile that has at
// least ten samples beyond it.
void PrintTailSupport(const std::string& what, size_t samples);

// Directory for this run's files under args.out (created).
std::string OutputDir(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_COMMON_H_
