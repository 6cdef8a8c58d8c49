// The driver's ingestion gutter: an append buffer where individual edge
// mutations accumulate until a flush boundary (size threshold, staleness
// deadline, query barrier, or shutdown) turns them into one MutationBatch.
//
// The name and role follow GraphZeppelin's GutteringSystem: high-velocity
// single-edge updates are absorbed cheaply and handed to the compute path
// in engine-sized units. Unlike a sketch gutter this one is not sharded per
// vertex — GraphBolt's ApplyMutations wants one global batch per BSP step,
// so a single buffer under the driver's lock is the correct granularity.
//
// Flushing can *coalesce*: MutableGraph::NormalizeBatch applies last-wins
// semantics per (src, dst) pair within a batch, so every mutation that a
// later mutation of the same pair supersedes is dead weight — dropping it
// here is exactly equivalent and saves the engine the normalization work.
//
// Not thread-safe; the driver serializes access under its lane mutex.
#ifndef SRC_DRIVER_GUTTER_BUFFER_H_
#define SRC_DRIVER_GUTTER_BUFFER_H_

#include <cstdint>
#include <unordered_set>
#include <utility>

#include "src/graph/mutation.h"
#include "src/graph/types.h"
#include "src/util/timer.h"

namespace graphbolt {

class GutterBuffer {
 public:
  void Add(const EdgeMutation& mutation) {
    if (buffer_.empty()) {
      age_.Reset();
    }
    buffer_.push_back(mutation);
  }

  // Puts a previously Taken batch back at the *front* of the gutter (the
  // kDegrade policy: a batch that could not be queued re-merges with
  // whatever accumulated since, to be re-coalesced and retried as one unit).
  // The refilled mutations are the oldest in the buffer, so the age epoch
  // resets to now only as a lower bound — refill under pressure must not
  // make the gutter look forever-stale and force flush loops.
  void Refill(MutationBatch&& batch) {
    if (batch.empty()) {
      return;
    }
    if (buffer_.empty()) {
      age_.Reset();
      buffer_ = std::move(batch);
      return;
    }
    batch.insert(batch.end(), std::make_move_iterator(buffer_.begin()),
                 std::make_move_iterator(buffer_.end()));
    buffer_ = std::move(batch);
  }

  size_t size() const { return buffer_.size(); }
  bool empty() const { return buffer_.empty(); }

  // Seconds since the oldest buffered mutation arrived (0 when empty).
  double AgeSeconds() const { return buffer_.empty() ? 0.0 : age_.Seconds(); }

  // Moves the buffered mutations out as one batch, leaving the gutter
  // empty. With `coalesce`, keeps only the last mutation per (src, dst)
  // pair — the only one NormalizeBatch would honor — preserving arrival
  // order among survivors; `*coalesced` receives the number dropped.
  MutationBatch Take(bool coalesce, uint64_t* coalesced) {
    MutationBatch batch;
    batch.swap(buffer_);
    if (!coalesce || batch.size() < 2) {
      return batch;
    }
    // Backward scan marks each pair's last occurrence; forward compaction
    // keeps the batch stable.
    std::unordered_set<uint64_t> seen;
    seen.reserve(batch.size());
    std::vector<uint8_t> keep(batch.size(), 0);
    for (size_t i = batch.size(); i-- > 0;) {
      if (seen.insert(PairKey(batch[i])).second) {
        keep[i] = 1;
      }
    }
    size_t out = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (keep[i]) {
        batch[out++] = batch[i];
      }
    }
    *coalesced += batch.size() - out;
    batch.resize(out);
    return batch;
  }

 private:
  static uint64_t PairKey(const EdgeMutation& m) {
    return (static_cast<uint64_t>(m.src) << 32) | m.dst;
  }

  MutationBatch buffer_;
  Timer age_;  // epoch of the oldest buffered mutation
};

}  // namespace graphbolt

#endif  // SRC_DRIVER_GUTTER_BUFFER_H_
