// Arithmetic the benchmark reports with: percentiles under the
// ten-samples-beyond rule, open-loop due-time accounting, freshness joins,
// and the failure tally. Header-only and free of library dependencies so
// tests/helpers_test.cc can check it in isolation.
#ifndef PERFBENCH_CPP_BENCH_STATS_H_
#define PERFBENCH_CPP_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample with at least q of the
// samples at or below it. q in (0, 1]. NaN for an empty sample.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

inline double Median(const std::vector<double>& samples) { return Percentile(samples, 0.5); }

// Samples strictly above the q-th percentile's rank.
inline size_t SamplesBeyond(size_t n, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

// A percentile is reported only when at least ten samples lie beyond it;
// with fewer, the tail is one or two outliers, not a percentile.
inline bool TailSupported(size_t n, double q) { return SamplesBeyond(n, q) >= 10; }

// The highest of the usual tail percentiles the sample supports (0 when
// not even the median has ten samples beyond it).
inline double HighestSupportedPercentile(size_t n) {
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    if (TailSupported(n, q)) {
      return q;
    }
  }
  return 0.0;
}

// Open-loop sender schedule: request i is due at start + i / rate, whether
// or not earlier requests were sent on time. Latency is charged from the due
// time, so a stall delays every request queued behind it in the figures too
// (no coordinated omission).
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double start_seconds, double rate_per_second)
      : start_(start_seconds), period_(1.0 / rate_per_second) {}

  double DueAt(size_t i) const { return start_ + static_cast<double>(i) * period_; }
  // How late request i went out; never negative (an early sender waits).
  double Lateness(size_t i, double sent_at) const { return std::max(0.0, sent_at - DueAt(i)); }

 private:
  double start_;
  double period_;
};

// One reader call: when it started and when it returned.
struct QueryWindow {
  double start = 0.0;
  double end = 0.0;
};

// Freshness of each update: the return of the first query that started at
// or after the update was ingested, minus the update's due time. `queries`
// must be sorted by start. Updates ingested after the last query started
// have no observing query and are skipped; *unobserved counts them.
inline std::vector<double> FreshnessFromQueries(const std::vector<double>& due,
                                                const std::vector<double>& ingested,
                                                const std::vector<QueryWindow>& queries,
                                                size_t* unobserved) {
  std::vector<double> fresh;
  fresh.reserve(due.size());
  size_t skipped = 0;
  size_t q = 0;
  for (size_t i = 0; i < ingested.size(); ++i) {
    // Ingest times are non-decreasing (one sender), so the cursor only
    // moves forward.
    while (q < queries.size() && queries[q].start < ingested[i]) {
      ++q;
    }
    if (q == queries.size()) {
      ++skipped;
      continue;
    }
    fresh.push_back(queries[q].end - due[i]);
  }
  if (unobserved != nullptr) {
    *unobserved = skipped;
  }
  return fresh;
}

// Closed-loop visibility: `visible_at[b]` is when batch b was first seen
// applied; batch b holds the updates with batch_of[i] == b. Freshness is
// visible_at[batch_of[i]] - ingested[i].
inline std::vector<double> FreshnessFromBatches(const std::vector<double>& ingested,
                                                const std::vector<uint32_t>& batch_of,
                                                const std::vector<double>& visible_at) {
  std::vector<double> fresh;
  fresh.reserve(ingested.size());
  for (size_t i = 0; i < ingested.size(); ++i) {
    if (batch_of[i] < visible_at.size()) {
      fresh.push_back(visible_at[batch_of[i]] - ingested[i]);
    }
  }
  return fresh;
}

// Failures over attempts. Attempts are mutations plus queries. Failures are
// mutations an ingest call refused or the driver dropped, queries answered
// from an unhealthy or degraded driver, and failed output checks.
struct FailureTally {
  uint64_t mutations = 0;
  uint64_t queries = 0;
  uint64_t refused = 0;
  uint64_t dropped = 0;
  uint64_t unhealthy_queries = 0;
  uint64_t degraded_queries = 0;
  uint64_t failed_checks = 0;

  uint64_t attempted() const { return mutations + queries; }
  uint64_t failed() const {
    return refused + dropped + unhealthy_queries + degraded_queries + failed_checks;
  }
  FailureTally& operator+=(const FailureTally& other) {
    mutations += other.mutations;
    queries += other.queries;
    refused += other.refused;
    dropped += other.dropped;
    unhealthy_queries += other.unhealthy_queries;
    degraded_queries += other.degraded_queries;
    failed_checks += other.failed_checks;
    return *this;
  }
  double fraction() const {
    return attempted() == 0 ? 0.0
                            : static_cast<double>(failed()) / static_cast<double>(attempted());
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_BENCH_STATS_H_
