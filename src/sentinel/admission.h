// Batch admission control: the screen every incoming MutationBatch passes
// before it is allowed anywhere near the engine.
//
// The streaming surveys (Besta et al.) treat ingestion robustness as a
// first-class systems concern: a production stream carries malformed,
// duplicate, and bursty updates, and the engine must absorb them without
// an operator restart. Concretely, the poisons this screen catches:
//
//   - out-of-range vertex ids: MutableGraph grows its vertex set to cover
//     any id it sees, so a single mutation with src = 4e9 is a memory bomb;
//   - NaN/Inf weights: a non-finite weight propagates through every
//     floating-point algorithm (PageRank, SSSP, ...) and never converges
//     back out — one poisoned edge wedges refinement forever;
//   - oversized batches: a batch bigger than the configured ceiling ties
//     up the worker for an unbounded apply (and its WAL record);
//   - self-loop / duplicate floods: junk traffic that is individually
//     harmless (normalization drops it) but consumes gutter, queue, WAL,
//     and normalization work at line rate.
//
// Screening is pure and lock-free: ScreenBatch inspects only the batch and
// the limits, so the driver runs it before taking any of its mutexes and
// a rejected batch never touches the pipeline. Rejects carry a RejectReason
// that the quarantine (src/sentinel/quarantine.h) persists for operator
// triage and ReplayQuarantine fix-up.
//
// The AdmissionGovernor is the overload half: it tracks an EWMA of apply
// latency and, combined with the pending-queue depth, estimates the drain
// time of the queued work. Above a threshold the driver enters degraded
// mode (queries serve the last consistent snapshot instead of blocking on
// the barrier; gutters coalesce instead of pushing); hysteresis keeps the
// flag from flapping. The governor is not internally synchronized — the
// driver updates and reads it under its own mutex.
#ifndef SRC_SENTINEL_ADMISSION_H_
#define SRC_SENTINEL_ADMISSION_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "src/graph/mutation.h"
#include "src/graph/types.h"

namespace graphbolt {

// Why a batch was refused admission. Persisted (as one byte) in the
// dead-letter WAL, so values are append-only: add new reasons at the end.
enum class RejectReason : uint8_t {
  kNone = 0,
  kOversizedBatch,    // more mutations than AdmissionLimits::max_batch_mutations
  kVertexOutOfRange,  // an endpoint above AdmissionLimits::max_vertex_id
  kNonFiniteWeight,   // NaN or Inf weight on an add/update
  kSelfLoopFlood,     // self-loop fraction above the flood threshold
  kDuplicateFlood,    // duplicate (src, dst) fraction above the flood threshold
  kNumReasons,
};

inline const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kOversizedBatch:
      return "oversized-batch";
    case RejectReason::kVertexOutOfRange:
      return "vertex-out-of-range";
    case RejectReason::kNonFiniteWeight:
      return "non-finite-weight";
    case RejectReason::kSelfLoopFlood:
      return "self-loop-flood";
    case RejectReason::kDuplicateFlood:
      return "duplicate-flood";
    default:
      return "unknown";
  }
}

struct AdmissionLimits {
  // Hard ceiling on mutations per ingested batch (0 = unlimited).
  size_t max_batch_mutations = size_t{1} << 22;
  // Largest vertex id a mutation may reference. The default permits any id
  // the VertexId type can address except the invalid sentinel; production
  // deployments should set it near the expected vertex range, since the
  // graph allocates O(max id seen) state.
  VertexId max_vertex_id = kInvalidVertex - 1;
  // Reject batches carrying NaN/Inf weights.
  bool reject_non_finite_weights = true;
  // Flood thresholds: fractions only apply to batches with at least
  // `flood_min_mutations` mutations (a 1-mutation batch trivially has
  // fraction 1.0). A fraction > 1.0 disables that check.
  size_t flood_min_mutations = 64;
  double max_self_loop_fraction = 0.5;
  double max_duplicate_fraction = 0.9;
};

struct AdmissionVerdict {
  RejectReason reason = RejectReason::kNone;
  // Index of the first offending mutation (size checks report 0).
  size_t offending_index = 0;

  bool admitted() const { return reason == RejectReason::kNone; }
};

// Screens a single mutation — the cheap per-mutation subset of the batch
// screen (range + finiteness), used by ShardedDriver::Ingest.
inline AdmissionVerdict ScreenMutation(const EdgeMutation& m, const AdmissionLimits& limits) {
  if (m.src > limits.max_vertex_id || m.dst > limits.max_vertex_id) {
    return {RejectReason::kVertexOutOfRange, 0};
  }
  if (limits.reject_non_finite_weights && m.kind != MutationKind::kDeleteEdge &&
      !std::isfinite(m.weight)) {
    return {RejectReason::kNonFiniteWeight, 0};
  }
  return {};
}

// Screens a whole batch. One pass over the mutations (the duplicate check
// uses a hash set sized by the batch), no locks, no engine access.
inline AdmissionVerdict ScreenBatch(const MutationBatch& batch, const AdmissionLimits& limits) {
  if (limits.max_batch_mutations > 0 && batch.size() > limits.max_batch_mutations) {
    return {RejectReason::kOversizedBatch, 0};
  }
  size_t self_loops = 0;
  size_t duplicates = 0;
  std::unordered_set<uint64_t> seen;
  seen.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const EdgeMutation& m = batch[i];
    if (m.src > limits.max_vertex_id || m.dst > limits.max_vertex_id) {
      return {RejectReason::kVertexOutOfRange, i};
    }
    if (limits.reject_non_finite_weights && m.kind != MutationKind::kDeleteEdge &&
        !std::isfinite(m.weight)) {
      return {RejectReason::kNonFiniteWeight, i};
    }
    self_loops += m.src == m.dst ? 1 : 0;
    const uint64_t key = (static_cast<uint64_t>(m.src) << 32) | m.dst;
    duplicates += seen.insert(key).second ? 0 : 1;
  }
  if (batch.size() >= limits.flood_min_mutations) {
    const double n = static_cast<double>(batch.size());
    if (static_cast<double>(self_loops) > limits.max_self_loop_fraction * n) {
      return {RejectReason::kSelfLoopFlood, 0};
    }
    if (static_cast<double>(duplicates) > limits.max_duplicate_fraction * n) {
      return {RejectReason::kDuplicateFlood, 0};
    }
  }
  return {};
}

// Overload-control thresholds for the admission governor.
struct GovernorOptions {
  // Enter degraded mode when the estimated drain time of the pending queue
  // (queue depth x apply-latency EWMA) exceeds this.
  double degrade_pressure_seconds = 2.0;
  // Leave degraded mode once the estimate falls to or below this
  // (hysteresis: must be <= degrade_pressure_seconds).
  double recover_pressure_seconds = 0.5;
  // EWMA smoothing for the apply-latency estimate.
  double ewma_alpha = 0.2;
};

// Tracks apply-latency EWMA and queue depth; decides the degraded flag.
// Not internally synchronized: the driver calls it under its own mutex.
class AdmissionGovernor {
 public:
  explicit AdmissionGovernor(GovernorOptions options = {}) : options_(options) {}

  // Feeds one observed apply latency (wall seconds) into the EWMA.
  void RecordApply(double seconds) {
    apply_ewma_ = apply_ewma_ == 0.0
                      ? seconds
                      : options_.ewma_alpha * seconds + (1.0 - options_.ewma_alpha) * apply_ewma_;
  }

  // Re-evaluates pressure against the current queue depth and returns the
  // (possibly changed) degraded flag. Pressure is the estimated time to
  // drain what is already queued; an empty queue is always zero pressure,
  // so degradation self-clears once the worker catches up.
  bool Update(size_t queue_depth) {
    const double pressure = static_cast<double>(queue_depth) * apply_ewma_;
    if (!degraded_ && pressure > options_.degrade_pressure_seconds) {
      degraded_ = true;
      ++degraded_entries_;
    } else if (degraded_ && pressure <= options_.recover_pressure_seconds) {
      degraded_ = false;
    }
    return degraded_;
  }

  bool degraded() const { return degraded_; }
  double apply_ewma_seconds() const { return apply_ewma_; }
  uint64_t degraded_entries() const { return degraded_entries_; }

 private:
  GovernorOptions options_;
  double apply_ewma_ = 0.0;
  bool degraded_ = false;
  uint64_t degraded_entries_ = 0;
};

}  // namespace graphbolt

#endif  // SRC_SENTINEL_ADMISSION_H_
