// In-memory span tracing for the traced pass of the benchmark.
//
// Spans wrap the benchmark's own calls into the library (Ingest,
// QuerySnapshot, InitialCompute, CheckpointNow, Recover, ...): name, layer,
// start, end, the span that caused it, and one request id per mutation or
// query. Nothing inside the library is instrumented. Each thread records
// into its own Buffer; buffers are merged when the workload ends, self time
// is computed per layer, and the spans are written out as JSON.
//
// With tracing off every Buffer pointer is null and ScopedSpan does nothing,
// not even read the clock.
#ifndef PERFBENCH_CPP_TRACE_H_
#define PERFBENCH_CPP_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr uint64_t kNoRequest = ~uint64_t{0};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  const char* name = "";
  const char* layer = "";
  uint64_t request = kNoRequest;
  double start = 0.0;  // seconds since the tracer's epoch
  double end = 0.0;
};

// A point event, e.g. one promotion reported by ShardedDriver's observer.
struct Instant {
  const char* name = "";
  const char* layer = "";
  double at = 0.0;
  uint64_t lane = 0;
  uint64_t size = 0;
};

// A layer's self time: the sum over its spans of the span's duration minus
// the part of that interval its child spans cover (overlapping children are
// counted once, and a child's overhang past its parent is clipped).
inline std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> parts;
      for (const auto& [begin, end] : it->second) {
        const double lo = std::max(begin, s.start);
        const double hi = std::min(end, s.end);
        if (hi > lo) {
          parts.emplace_back(lo, hi);
        }
      }
      std::sort(parts.begin(), parts.end());
      double run_lo = 0.0;
      double run_hi = -1.0;
      for (const auto& [lo, hi] : parts) {
        if (lo > run_hi) {
          covered += std::max(0.0, run_hi - run_lo);
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      covered += std::max(0.0, run_hi - run_lo);
    }
    self[s.layer] += (s.end - s.start) - covered;
  }
  return self;
}

class Tracer {
 public:
  // One thread's spans. Only the owning thread appends.
  struct Buffer {
    Tracer* tracer = nullptr;
    std::vector<Span> spans;
    std::vector<Instant> instants;
  };

  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double Now() const { return std::chrono::duration<double>(Clock::now() - epoch_).count(); }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // A fresh buffer for the calling thread; lives as long as the tracer.
  Buffer* NewBuffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tracer = this;
    return buffers_.back().get();
  }

  // All spans / instants, merged across buffers. Call after every
  // recording thread has been joined.
  std::vector<Span> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    return all;
  }
  std::vector<Instant> Instants() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Instant> all;
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->instants.begin(), b->instants.end());
    }
    return all;
  }

  // Writes {"spans": [...], "instants": [...], "self_seconds": {...}}.
  bool WriteJson(const std::string& path) const {
    const std::vector<Span> spans = Spans();
    const std::vector<Instant> instants = Instants();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"spans\": [");
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s\n{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", \"layer\": \"%s\", "
                   "\"request\": %lld, \"start_s\": %.9f, \"end_s\": %.9f}",
                   i ? "," : "", static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name, s.layer,
                   s.request == kNoRequest ? -1LL : static_cast<long long>(s.request), s.start,
                   s.end);
    }
    std::fprintf(f, "],\n\"instants\": [");
    for (size_t i = 0; i < instants.size(); ++i) {
      const Instant& e = instants[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"layer\": \"%s\", \"at_s\": %.9f, \"lane\": %llu, "
                   "\"size\": %llu}",
                   i ? "," : "", e.name, e.layer, e.at, static_cast<unsigned long long>(e.lane),
                   static_cast<unsigned long long>(e.size));
    }
    std::fprintf(f, "],\n\"self_seconds\": {");
    bool first = true;
    for (const auto& [layer, seconds] : SelfTimeByLayer(spans)) {
      std::fprintf(f, "%s\"%s\": %.9f", first ? "" : ", ", layer.c_str(), seconds);
      first = false;
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Records one span into `buffer` for its lifetime; inert when buffer is
// null (the untraced pass).
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buffer, const char* name, const char* layer, uint64_t parent = 0,
             uint64_t request = kNoRequest)
      : buffer_(buffer) {
    if (buffer_ != nullptr) {
      span_.id = buffer_->tracer->NextId();
      span_.parent = parent;
      span_.name = name;
      span_.layer = layer;
      span_.request = request;
      span_.start = buffer_->tracer->Now();
    }
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      span_.end = buffer_->tracer->Now();
      buffer_->spans.push_back(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer::Buffer* buffer_;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_TRACE_H_
