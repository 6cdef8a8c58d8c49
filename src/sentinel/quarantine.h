// The dead-letter WAL for batches refused by admission control.
//
// A rejected batch is never silently dropped: it is appended here, bitwise
// intact, together with its RejectReason, so (a) every reject is accounted
// for, (b) an operator can inspect exactly what was refused and why, and
// (c) after fix-up the batches can re-enter the stream through
// ShardedDriver::ReplayQuarantine. One poison batch therefore costs one
// dead-letter append — it can never crash or wedge the pipeline.
//
// Storage reuses WriteAheadLog (src/fault/wal.h) — same record framing,
// same torn-tail-tolerant replay — with the reason code packed into the
// top byte of the record's sequence field (quarantine sequence numbers are
// local counters, nowhere near 2^56). The payload bytes are the batch
// verbatim, which is what makes the round-trip bitwise.
//
// Thread-safe: producers append concurrently with an operator's Drain.
// Drain snapshots the parked records and truncates the log *before*
// feeding them out, so a fix-up callback that re-ingests (and possibly
// re-quarantines) a batch re-enters Append without self-deadlock.
#ifndef SRC_SENTINEL_QUARANTINE_H_
#define SRC_SENTINEL_QUARANTINE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/fault/wal.h"
#include "src/graph/mutation.h"
#include "src/sentinel/admission.h"
#include "src/util/logging.h"

namespace graphbolt {

class Quarantine {
 public:
  // `directory` holds the dead-letter log (quarantine.wal), created on
  // first append. The injector (not owned, may be null) arms
  // FaultSite::kQuarantineAppend so tests can exercise the append-failure
  // path deterministically. A null env means the real filesystem; a
  // FaultyEnv here puts the dead-letter lineage under the same injectable
  // storage as every other durability artifact.
  explicit Quarantine(const std::string& directory, FaultInjector* injector = nullptr,
                      StorageEnv* env = nullptr)
      : injector_(injector) {
    log_.Open(directory + "/quarantine.wal", env);
  }

  Quarantine(const Quarantine&) = delete;
  Quarantine& operator=(const Quarantine&) = delete;

  const std::string& path() const { return log_.path(); }

  // Parks one rejected batch with its reason. Returns false when the
  // dead-letter write itself fails (injected or real IO failure) — the
  // caller counts the batch dropped so accounting stays exact.
  bool Append(RejectReason reason, const MutationBatch& batch) {
    std::lock_guard<std::mutex> lock(mu_);
    if (GB_FAULT_POINT(injector_, FaultSite::kQuarantineAppend)) {
      GB_LOG(kWarning) << "FaultInjector: quarantine append dropped";
      return false;
    }
    if (!log_.Append(Pack(reason, ++seq_), batch)) {
      return false;
    }
    ++parked_;
    return true;
  }

  // Streams every parked record through fn(RejectReason, MutationBatch&&)
  // without consuming it — the operator's inspection view. Returns the
  // number of records delivered.
  template <typename Fn>
  size_t ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_.Replay(0, [&](uint64_t seq, MutationBatch&& batch) {
      fn(Unpack(seq), std::move(batch));
    });
  }

  // Consumes the quarantine: snapshots all parked records, truncates the
  // log, then feeds each (reason, batch) to fn. Because the log is already
  // empty when fn runs, fn may call Append (a re-screened batch that is
  // still poisonous goes back to quarantine) without deadlock or replay
  // duplication. Returns the number of records fed.
  template <typename Fn>
  size_t Drain(Fn&& fn) {
    std::vector<std::pair<RejectReason, MutationBatch>> parked;
    {
      std::lock_guard<std::mutex> lock(mu_);
      log_.Replay(0, [&](uint64_t seq, MutationBatch&& batch) {
        parked.emplace_back(Unpack(seq), std::move(batch));
      });
      log_.Reset();
      seq_ = 0;
      parked_ = 0;
    }
    for (auto& [reason, batch] : parked) {
      fn(reason, std::move(batch));
    }
    return parked.size();
  }

  // Batches parked since construction or the last Drain. (Counts appends
  // observed by this instance; a pre-existing log on disk additionally
  // replays through ForEach/Drain.)
  uint64_t parked_batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return parked_;
  }

 private:
  // Reason rides in the top byte of the WAL record's seq field.
  static uint64_t Pack(RejectReason reason, uint64_t seq) {
    return (static_cast<uint64_t>(reason) << 56) | (seq & ((uint64_t{1} << 56) - 1));
  }
  static RejectReason Unpack(uint64_t seq) {
    const uint8_t raw = static_cast<uint8_t>(seq >> 56);
    return raw < static_cast<uint8_t>(RejectReason::kNumReasons) ? static_cast<RejectReason>(raw)
                                                                 : RejectReason::kNone;
  }

  mutable std::mutex mu_;
  WriteAheadLog log_;
  uint64_t seq_ = 0;
  uint64_t parked_ = 0;
  FaultInjector* injector_;
};

}  // namespace graphbolt

#endif  // SRC_SENTINEL_QUARANTINE_H_
