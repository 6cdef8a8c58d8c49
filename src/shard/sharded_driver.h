// ShardedDriver: the pipelined, multi-lane ingestion front-end that turns a
// batch engine into a streaming service. It is the one driver: the
// unsharded pipeline is DriverConfig::shards = 1.
//
// The engines in this repository are synchronous: callers hand-build a
// MutationBatch and block on ApplyMutations. The driver decouples batching,
// applying, and querying so they overlap (the GraphSketchDriver /
// GutteringSystem / WorkerThreadGroup split of GraphZeppelin, adapted to
// one global BSP engine). The vertex space is partitioned into N shards —
// shard_of(v) = v % N — and each shard owns an ingestion *lane*:
//
//   sessions ──route by src──► lane gutter ──flush──► lane queue ──► lane
//   (tenant quota gate)        (batch by size          (backpressure) worker
//                               or staleness)
//
// - Producers ingest individual edge mutations (or whole batches); the
//   owning lane's gutter absorbs them and flushes a batch when it reaches
//   `batch_size` or has been sitting for `flush_interval_seconds`.
// - Flushed batches travel through the lane's bounded queue to the lane
//   worker. The bound is the backpressure mechanism: when refinement falls
//   behind ingestion, producers block (kBlock), batches are shed or
//   evicted (kDropNewest / kShedToWal / kShedOldest), or they coalesce in
//   the gutter (kDegrade), so memory stays bounded.
// - Stop() (also the destructor) drains: ingestion closes, gutter
//   remainders flush, the workers apply everything queued and join.
//   Mutations ingested after Stop are counted dropped, never lost silently.
//
// Each lane owns a gutter, a bounded queue, a worker thread, a per-shard
// write-ahead log (`<checkpoint_dir>/shard-<i>.wal`), and a *staging
// partition* — a MutableGraph holding exactly the edges whose source this
// shard owns, with its own slack-CSR arenas. A lane worker first *stages* a
// popped batch (applies it to the partition, concurrently across lanes),
// then immediately *promotes* it into the global engine under the engine
// mutex. Promotion is serialized — the engines are synchronous BSP
// refiners and cannot apply concurrently — so the engine-lock acquisition
// order IS the global apply order; an observer hook records it, which is
// how the equivalence tests replay the admitted stream through a bare
// engine and compare snapshots bitwise.
//
// Producers open a Session (OpenSession(tenant_id)) whose tenant quota —
// token bucket + lifetime cap, shared across all sessions of the tenant
// (src/shard/session.h) — gates admission whole-batch-or-nothing *after*
// the sentinel's content screen and *before* any lane lock. The plain
// Ingest/IngestBatch surface delegates to an implicit default session
// (tenant "", default_quota).
//
// PrepQuery is a two-phase barrier:
//   Phase 1 flushes every lane's gutter remainder into its queue;
//   Phase 2 waits until every lane's in-flight count reaches zero.
// Because each mutation is routed by its source vertex, all mutations of
// one (src, dst) pair traverse the same lane in ingest order, so the
// admitted stream the engine sees is a legal interleaving of the producers'
// streams — and after the barrier the engine holds exactly one BSP
// snapshot of it (what a from-scratch run on the current graph would
// produce). When nothing is buffered, in flight, or shed the barrier is a
// cached-query fast path. Mutations racing on different producers have no
// defined global order; shed batches additionally lose their place in the
// stream and re-enter at the next barrier or recovery.
//
// The engine is never accessed concurrently: promotions serialize on the
// engine mutex and the query paths synchronize with it. QuerySnapshot() is
// safe at any time from any thread; values() returns a reference into the
// engine and is meant for quiescent callers (after PrepQuery returns and
// while no concurrent producer can trigger a flush).
//
// Durability (src/fault/): with a Checkpointer attached, every promoted
// batch is journaled to the global write-ahead log immediately before it
// is applied (under the engine mutex, so WAL order == apply order by
// construction) and engine state is snapshotted at the checkpointer's
// cadence. The global checkpointer is the recovery source of truth. The
// per-shard WALs are lineage keyed by the same global sequence numbers,
// which Recover() scans in parallel. A WAL append that fails past its retry
// budget forces an immediate checkpoint, which supersedes the lost record.
// A worker killed between batches (the FaultSite::kWorkerKill stand-in for
// a crash) closes its lane queue, so producers shed to the durable side
// log (or drop) instead of blocking behind a dead consumer; healthy() goes
// false and PrepQuery returns a stale snapshot at once until Recover()
// restores the newest valid checkpoint, replays the WAL tail, promotes the
// queued remainders, replays the shed log, and restarts the lanes.
//
// Sentinel (src/sentinel/): setting quarantine_dir arms admission control
// — every ingested mutation and batch is screened (vertex range, NaN/Inf
// weights, size ceiling, flood heuristics) before any driver lock, and
// rejects are parked bitwise-intact in a dead-letter WAL; ReplayQuarantine()
// re-admits them after operator fix-up. Overload control runs across
// lanes:
//   - Shedding (kShedToWal / kShedOldest): every lane sheds into the ONE
//     globally sequence-tagged shed log (Checkpointer::AppendShed), and
//     PrepQuery's phase 2 gains a global replay barrier — after all lanes
//     drain, the shed log replays in shed-sequence order under the engine
//     mutex, so replayed mutations land in one deterministic global order
//     no matter which lane shed them.
//   - Degrade (kDegrade): one AdmissionGovernor aggregates every lane's
//     apply-latency EWMA and the total queued depth. While it reports
//     overload, a lane whose queue is full leaves the batch coalescing in
//     its gutter and PrepQuery serves the last globally consistent BSP
//     snapshot (whole batches promote under the engine mutex, so the state
//     a degraded read observes is always the exact fixpoint of some prefix
//     of the admitted stream). Self-clears when pressure recedes on every
//     lane — the governor's depth input is the sum over lanes.
//   - Watchdog: per-lane StageScope heartbeats feed a single StallWatchdog
//     verdict (the slot table is lanes x stages). A stalled lane is
//     recovered lane-locally — its worker sheds the in-hand batch durably
//     and resumes, sibling lanes never stop — with one global
//     auto-Recover() escalation path (checkpoint + WAL tail + preserved
//     queue remainders + shed replay) when a checkpointer is attached.
#ifndef SRC_SHARD_SHARDED_DRIVER_H_
#define SRC_SHARD_SHARDED_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/streaming_engine.h"
#include "src/driver/fast_path.h"
#include "src/driver/gutter_buffer.h"
#include "src/driver/maintenance_budget.h"
#include "src/engine/stats.h"
#include "src/fault/checkpoint.h"
#include "src/fault/fault_injector.h"
#include "src/fault/wal.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/mutation.h"
#include "src/parallel/bounded_queue.h"
#include "src/parallel/task_arena.h"
#include "src/sentinel/admission.h"
#include "src/sentinel/quarantine.h"
#include "src/sentinel/watchdog.h"
#include "src/shard/driver_config.h"
#include "src/shard/session.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace graphbolt {

template <StreamingEngine Engine>
class ShardedDriver {
 public:
  using Value = EngineValueT<Engine>;
  using Options = DriverConfig;
  // Called under the journal serialization immediately before each
  // promotion, in global apply order: (owning lane, the batch as applied).
  // Shed replays report the pseudo-lane lanes_.size(); fast-path safe
  // applies report lanes_.size() + 1 (they bypass the lanes entirely).
  using ApplyObserver = std::function<void(size_t lane, const MutationBatch& batch)>;

  // The producer handle: a movable, non-copyable capability to ingest as
  // one tenant. All sessions of a tenant share quota state; the handle
  // borrows it and must not outlive the driver.
  class Session {
   public:
    Session() = default;
    Session(Session&& other) noexcept
        : driver_(other.driver_), state_(other.state_) {
      other.driver_ = nullptr;
      other.state_ = nullptr;
    }
    Session& operator=(Session&& other) noexcept {
      driver_ = other.driver_;
      state_ = other.state_;
      other.driver_ = nullptr;
      other.state_ = nullptr;
      return *this;
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    bool valid() const { return driver_ != nullptr; }
    const std::string& tenant() const { return state_->tenant(); }

    // Thread-safe. False when the quota gate, the admission screen, or a
    // stopped driver refused the mutation.
    bool Ingest(const EdgeMutation& mutation) {
      return driver_->IngestFor(state_, mutation);
    }

    // Single-update fast path (config.fast_path; see IngestFast on the
    // driver): safe mutations splice in place past the lane gutters, unsafe
    // ones escalate into the owning lane. Same quota and screening gates as
    // Ingest.
    bool IngestFast(const EdgeMutation& mutation) {
      return driver_->IngestFastFor(state_, mutation);
    }

    // Whole-batch quota admission, then per-lane routing. Returns how many
    // mutations entered the pipeline (0 on a quota or screen rejection).
    size_t IngestBatch(const MutationBatch& batch) {
      return driver_->IngestBatchFor(state_, batch);
    }

    // This tenant's cumulative quota accounting.
    TenantStats stats() const { return state_->stats(); }

   private:
    friend ShardedDriver;
    Session(ShardedDriver* driver, TenantState* state)
        : driver_(driver), state_(state) {}

    ShardedDriver* driver_ = nullptr;
    TenantState* state_ = nullptr;
  };

  // The engine must outlive the driver and already hold the initial
  // snapshot: run engine->InitialCompute() before ingesting (and
  // CheckpointNow() after it, so a crash before the first cadence
  // checkpoint still has a baseline to recover from). `config` must pass
  // Validate(). The checkpointer, when given, is the global durability
  // authority; Recover() needs one. The fault injector (test-only, a no-op
  // unless compiled with GRAPHBOLT_FAULT_INJECTION=1) arms the lane queues
  // and the fault sites. Neither is owned; both must outlive the driver.
  explicit ShardedDriver(Engine* engine, DriverConfig config = {},
                         Checkpointer<Engine>* checkpointer = nullptr,
                         FaultInjector* fault_injector = nullptr)
      : engine_(engine),
        config_(std::move(config)),
        governor_(config_.governor),
        checkpointer_(checkpointer),
        injector_(fault_injector) {
    const std::string invalid = config_.Validate();
    GB_CHECK(invalid.empty()) << "DriverConfig: " << invalid;
    GB_CHECK(config_.overflow != OverflowPolicy::kShedToWal || checkpointer_ != nullptr)
        << "OverflowPolicy::kShedToWal requires a Checkpointer";
    if (config_.background_compaction) {
      if constexpr (GraphMaintainableEngine<Engine>) {
        engine_->mutable_graph()->SetCompactionMode(SlackCsr::CompactionMode::kBackground);
      } else {
        GB_LOG(kWarning) << "background_compaction requested but the engine "
                            "does not expose its graph; staying synchronous";
        config_.background_compaction = false;
      }
    }
    if (!config_.quarantine_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(config_.quarantine_dir, ec);
      quarantine_ = std::make_unique<Quarantine>(
          config_.quarantine_dir, injector_,
          checkpointer_ != nullptr ? checkpointer_->env() : nullptr);
    }
    const bool wal_enabled = !config_.checkpoint_dir.empty();
    StorageEnv* lane_env =
        checkpointer_ != nullptr ? checkpointer_->env() : StorageEnv::Default();
    if (wal_enabled) {
      lane_env->CreateDirectories(config_.checkpoint_dir);
    }
    lanes_.reserve(config_.shards);
    for (size_t i = 0; i < config_.shards; ++i) {
      lanes_.push_back(std::make_unique<Lane>(i, config_.max_pending_batches));
      Lane& lane = *lanes_.back();
      lane.queue.ArmFaultInjector(injector_);
      if (wal_enabled) {
        // The lane lineage survives restarts: it is a recovery source
        // (Recover replays the lineages in parallel), so it is NOT reset
        // here. Compaction drops records a retained checkpoint covers.
        lane.wal.Open(config_.checkpoint_dir + "/shard-" + std::to_string(i) + ".wal",
                      lane_env);
        lane.wal_enabled = true;
      }
      if (config_.background_compaction) {
        lane.partition.SetCompactionMode(SlackCsr::CompactionMode::kBackground);
      }
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.shard_lanes = lanes_.size();
    }
    // One heartbeat slot table entry per (lane, stage); sized before the
    // first worker can heartbeat.
    watchdog_.SetLanes(lanes_.size());
    default_tenant_ = GetTenantState(std::string());
    for (auto& lane : lanes_) {
      Lane* raw = lane.get();
      raw->worker = std::thread([this, raw] { LaneLoop(*raw); });
    }
    if (config_.watchdog_stall_seconds > 0.0) {
      watchdog_.Start({config_.watchdog_poll_seconds, config_.watchdog_stall_seconds},
                      [this](const StallCause& cause) { OnStall(cause); });
    }
  }

  ~ShardedDriver() { Stop(); }

  ShardedDriver(const ShardedDriver&) = delete;
  ShardedDriver& operator=(const ShardedDriver&) = delete;

  size_t shards() const { return lanes_.size(); }
  const DriverConfig& config() const { return config_; }

  // Opens (or re-opens) a session for `tenant`. Sessions of one tenant
  // share quota state, so a tenant cannot widen its allowance by opening
  // more of them.
  Session OpenSession(const std::string& tenant) {
    TenantState* state = GetTenantState(tenant);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.sessions_opened;
    }
    return Session(this, state);
  }

  // The session-less surface, delegating to the implicit default session
  // (tenant "", config.default_quota). Thread-safe; Ingest blocks only when
  // a flush hits a full queue under kBlock. Ingest returns false (counting
  // the mutation dropped) after Stop(), or when the quota gate or the
  // admission screen refused it. IngestBatch returns how many mutations
  // were accepted (flush boundaries still follow batch_size).
  //
  // IngestFast is the single-update fast path (config.fast_path;
  // src/driver/fast_path.h, INTERNALS §13): a mutation the engine
  // classifies safe against its dependency state is journaled at the next
  // sequence number and spliced in place — no gutter, no flush, no barrier,
  // no engine mutex — while an unsafe one escalates into its lane as a
  // refinement micro-batch. With fast_path off, or an engine that cannot
  // classify, it is exactly Ingest.
  bool Ingest(const EdgeMutation& mutation) { return IngestFor(default_tenant_, mutation); }
  bool IngestFast(const EdgeMutation& mutation) {
    return IngestFastFor(default_tenant_, mutation);
  }
  size_t IngestBatch(const MutationBatch& batch) {
    return IngestBatchFor(default_tenant_, batch);
  }

  // Hands every lane's gutter remainder to its worker.
  void Flush() {
    for (auto& lane : lanes_) {
      std::unique_lock<std::mutex> lock(lane->mu);
      FlushLaneLocked(*lane, lock);
    }
  }

  // Two-phase query barrier with a global shed-replay phase. Phase 1
  // flushes every lane; phase 2 drains them; then any batches parked in
  // the global shed log replay in shed-sequence order under the engine
  // mutex — one deterministic order no matter which lane shed them — and
  // the flush/drain/replay loop repeats until nothing is shed (a producer
  // racing the barrier may shed behind the drain). On return every
  // mutation ingested before the call has been promoted, so the engine
  // holds an exact BSP snapshot of the admitted stream. Returns false on
  // the fast path (nothing buffered, in flight, or shed anywhere — the
  // previous snapshot is still current). Under kDegrade with the governor
  // reporting overload, serves the last globally consistent snapshot
  // immediately instead of waiting on the barrier. On a crashed driver
  // (a dead lane worker) the barrier returns at once with a stale
  // snapshot; check healthy() and call Recover().
  bool PrepQuery() {
    bool idle = true;
    for (auto& lane : lanes_) {
      std::lock_guard<std::mutex> lock(lane->mu);
      if (!lane->gutter.empty() || lane->in_flight != 0) {
        idle = false;
        break;
      }
    }
    if constexpr (AsyncDeltaEngine<Engine>) {
      // An async-engaged engine holds eventually-consistent values, not an
      // exact BSP snapshot — the fast path's "still current" claim would
      // be a lie, so force the reconciling barrier instead.
      if (async_engaged_.load(std::memory_order_acquire)) {
        idle = false;
      }
    }
    if (idle) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (shed_batches_ == 0) {
        return false;
      }
      idle = false;
    }
    if (config_.overflow == OverflowPolicy::kDegrade && degraded()) {
      // Degraded serve: whole batches promote under engine_mu_, so in BSP
      // mode the engine state is always the exact BSP fixpoint of *some*
      // prefix of the admitted stream — stale, never inconsistent. With
      // the async tier engaged the served values instead update
      // continuously (eventually consistent; stats().async_residual bounds
      // the distance to the fixed point). Clears on its own once pressure
      // recedes on every lane.
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.degraded_queries;
      if (async_engaged_.load(std::memory_order_acquire)) {
        ++stats_.async_fresh_queries;
      }
      return true;
    }
    for (;;) {
      if (AnyLaneDead()) {
        GB_LOG(kWarning) << "PrepQuery on a crashed driver: snapshot is stale; Recover() first";
        return true;
      }
      for (auto& lane : lanes_) {
        std::unique_lock<std::mutex> lock(lane->mu);
        FlushLaneLocked(*lane, lock, /*allow_refill=*/false);
      }
      bool died = false;
      for (auto& lane : lanes_) {
        std::unique_lock<std::mutex> lock(lane->mu);
        lane->drained_cv.wait(lock, [&] { return lane->in_flight == 0 || lane->dead; });
        died = died || lane->dead;
      }
      if (died) {
        continue;  // a worker died during the barrier: report it above
      }
      if constexpr (AsyncDeltaEngine<Engine>) {
        if (async_engaged_.load(std::memory_order_acquire)) {
          // The barrier promises an exact BSP snapshot: run the reconciling
          // barrier, then re-run the flush/drain loop (a producer may have
          // raced in while the engine recomputed).
          {
            std::lock_guard<std::mutex> engine_lock(engine_mu_);
            ReconcileAsync();
          }
          continue;
        }
      }
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        if (shed_batches_ == 0) {
          return true;
        }
      }
      ReplayShed();  // the global replay barrier
    }
  }

  // Barrier + reference to the engine's values. The reference is an exact
  // BSP snapshot at return; it stays valid but may be rewritten once
  // another producer triggers a flush — meant for quiescent callers.
  const std::vector<Value>& values() {
    PrepQuery();
    return engine_->values();
  }

  // Barrier + copy, safe under concurrent ingestion from other threads.
  std::vector<Value> QuerySnapshot() {
    PrepQuery();
    std::lock_guard<std::mutex> engine_lock(engine_mu_);
    // Seqlock against in-flight fast-path splices: safe applies leave the
    // value vector bitwise unchanged, but the epoch check makes the
    // prefix-consistency argument local instead of relying on that proof.
    for (;;) {
      const uint64_t epoch = epoch_.ReadStable();
      std::vector<Value> snapshot = engine_->values();
      if (epoch_.Validate(epoch)) {
        return snapshot;
      }
    }
  }

  // Cumulative driver statistics; the shard block (shard_lanes,
  // shard_batches_staged, shard_wal_appends, cross_shard_mutations,
  // sessions_opened, *_quota_rejected) is populated only here.
  EngineStats stats() const {
    EngineStats snapshot;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      snapshot = stats_;
    }
    {
      std::lock_guard<std::mutex> lock(governor_mu_);
      snapshot.apply_ewma_seconds = governor_.apply_ewma_seconds();
      snapshot.degraded_entries = governor_.degraded_entries();
    }
    if (checkpointer_ != nullptr) {
      checkpointer_->MergeStats(&snapshot);
    }
    snapshot.fastpath_safe_applied = fast_counters_.safe_applied.load(std::memory_order_relaxed);
    snapshot.fastpath_unsafe_escalated =
        fast_counters_.unsafe_escalated.load(std::memory_order_relaxed);
    snapshot.fastpath_epoch_flips = epoch_.flips();
    return snapshot;
  }

  // False while a lane worker is dead (killed by fault injection, the
  // stand-in for a crash) until Recover(), and after the watchdog has
  // declared a lane stalled until the lane's local recovery (shed the
  // in-hand batch, resume) or a global Recover() completes.
  bool healthy() const {
    if (AnyLaneDead()) {
      return false;
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    return healthy_ && !escalating_;
  }

  // True while the governor has the driver in degraded mode (overload):
  // under kDegrade, PrepQuery serves the last globally consistent snapshot
  // instead of blocking on the barrier.
  bool degraded() const {
    std::lock_guard<std::mutex> lock(governor_mu_);
    return governor_.degraded();
  }

  // Mutations buffered across all lane gutters (not yet flushed).
  size_t pending_mutations() const {
    size_t pending = 0;
    for (const auto& lane : lanes_) {
      std::lock_guard<std::mutex> lock(lane->mu);
      pending += lane->gutter.size();
    }
    return pending;
  }

  // Registers the promotion-order observer. Call before ingestion starts;
  // the hook runs under the engine mutex, so keep it cheap.
  void set_apply_observer(ApplyObserver observer) {
    std::lock_guard<std::mutex> engine_lock(engine_mu_);
    std::lock_guard<std::mutex> journal_lock(journal_mu_);
    observer_ = std::move(observer);
  }

  // A quiescent snapshot of lane i's staging partition — the edges whose
  // source vertex shard i owns. Call only while no producer can trigger a
  // flush (after PrepQuery with ingestion paused, or after Stop); the
  // barrier's lane handshake makes the worker's writes visible.
  EdgeList ShardPartitionEdges(size_t lane) const {
    GB_CHECK(lane < lanes_.size()) << "lane " << lane << " out of range";
    return lanes_[lane]->partition.ToEdgeList();
  }

  // The dead-letter quarantine; null unless config.quarantine_dir was set.
  Quarantine* quarantine() { return quarantine_.get(); }
  uint64_t quarantined_batches() const {
    return quarantine_ != nullptr ? quarantine_->parked_batches() : 0;
  }

  // Drains the quarantine through `fixup(RejectReason, MutationBatch&)`.
  // fixup repairs the batch in place and returns true to re-admit it — the
  // batch is re-screened, so a still-poison batch goes straight back to
  // quarantine — or false to discard it. Call on a live (accepting)
  // driver. Returns the number of parked batches fed to fixup.
  // Re-admission goes through the default session (an operator action,
  // but still quota-accounted).
  template <typename Fixup>
  size_t ReplayQuarantine(Fixup&& fixup) {
    if (quarantine_ == nullptr) {
      return 0;
    }
    return quarantine_->Drain([&](RejectReason reason, MutationBatch&& batch) {
      if (!fixup(reason, batch)) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.quarantine_discarded;
        stats_.mutations_dropped += batch.size();
        return;
      }
      const size_t accepted = IngestBatch(batch);
      if (accepted > 0 || batch.empty()) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.quarantine_replayed;
      }
    });
  }
  size_t ReplayQuarantine() {
    return ReplayQuarantine([](RejectReason, MutationBatch&) { return true; });
  }

  // Writes a global checkpoint of the current engine state immediately —
  // the baseline right after InitialCompute, or an explicit save point.
  bool CheckpointNow() {
    if constexpr (CheckpointableEngine<Engine>) {
      if (checkpointer_ == nullptr) {
        return false;
      }
      StallWatchdog::StageScope stage(&watchdog_, PipelineStage::kCheckpoint);
      std::lock_guard<std::mutex> engine_lock(engine_mu_);
      std::lock_guard<std::mutex> journal_lock(journal_mu_);
      return checkpointer_->WriteCheckpoint(applied_seq_);
    } else {
      return false;
    }
  }

  // Crash recovery. Stops every lane, joins the workers (a worker parked in
  // an injected stall observes stall_abort_, sheds its in-hand batch, and
  // exits), restores the newest valid checkpoint, replays the WAL tail,
  // promotes the batches still queued in any lane (process memory, not
  // crash casualties — applied in lane order, which is a legal
  // interleaving), drains the shed log in shed-sequence order, and
  // restarts the lanes. Queued-then-shed is the stream order: shedding
  // only starts once a queue is full or closed. Works both on a live
  // driver whose worker died and as cold-start recovery on a freshly
  // constructed graph/engine/driver (no InitialCompute needed), for any
  // shard count over the same on-disk state. Always restores from disk —
  // in-memory engine state is discarded. Returns false (lanes restarted,
  // engine state left as-is) when no valid checkpoint exists.
  bool Recover() {
    if constexpr (!CheckpointableEngine<Engine>) {
      GB_LOG(kError) << "Recover() requires a CheckpointableEngine";
      return false;
    } else {
      std::lock_guard<std::mutex> stop_lock(stop_mu_);
      if (checkpointer_ == nullptr) {
        GB_LOG(kError) << "Recover() without a Checkpointer";
        return false;
      }
      Timer wall;
      for (auto& lane : lanes_) {
        std::lock_guard<std::mutex> lock(lane->mu);
        lane->accepting = false;
      }
      for (auto& lane : lanes_) {
        lane->queue.Close();
      }
      // Cooperative cancellation: a worker parked in an injected stage
      // stall observes this token, sheds its in-hand batch, and exits so
      // the joins below return.
      stall_abort_.store(true);
      for (auto& lane : lanes_) {
        if (lane->worker.joinable()) {
          lane->worker.join();
        }
      }
      // Queue leftovers, preserved per lane in pop order. Lane order is a
      // legal global order: the batches were concurrent at the crash.
      std::vector<std::pair<size_t, TimedBatch>> preserved;
      for (size_t i = 0; i < lanes_.size(); ++i) {
        while (std::optional<TimedBatch> leftover = lanes_[i]->queue.Pop()) {
          preserved.emplace_back(i, std::move(*leftover));
        }
      }
      bool restored = false;
      bool applied_preserved = false;
      uint64_t replayed_lanes = 0;
      uint64_t replayed_wal = 0;
      uint64_t replayed_shed = 0;
      uint64_t recovered_seq = 0;
      {
        std::lock_guard<std::mutex> engine_lock(engine_mu_);
        if constexpr (AsyncDeltaEngine<Engine>) {
          // WAL replay goes through BSP ApplyMutations: a crash inside an
          // async window reconciles first (force-checkpointing, so the
          // reconciled fixpoint is the newest restore point).
          ReconcileAsync();
        }
        bool can_absorb = false;
        {
          // journal_mu_ fences out concurrent fast-path splices while the
          // engine is rebuilt from disk (ApplyJournaled re-takes it below).
          std::lock_guard<std::mutex> journal_lock(journal_mu_);
          uint64_t ckpt_seq = 0;
          restored = checkpointer_->RestoreLatest(&ckpt_seq);
          if (restored) {
            applied_seq_ = ckpt_seq;
            // Native sharded recovery: scan every lane's WAL lineage in
            // parallel (one thread per lane — the scans are independent
            // files), then apply the merged tail serially in global
            // sequence order, so the promotion order is bit-identical to
            // the pre-crash run. The global journal sweep below starts
            // from wherever the lineages end: when they are complete it
            // is a no-op, and when a lineage is gapped (lost lane file)
            // it covers the remainder.
            replayed_lanes = ReplayLaneLineages(ckpt_seq);
            replayed_wal = checkpointer_->ReplayWal(
                applied_seq_, [&](uint64_t seq, MutationBatch&& batch) {
                  engine_->ApplyMutations(batch);
                  applied_seq_ = seq;
                });
          }
          can_absorb = restored || applied_seq_ > 0;
        }
        if (can_absorb) {
          // Preserved and shed batches are promoting for the FIRST time, so
          // the observer sees them (the WAL tail above is a re-promotion of
          // already-observed batches and stays silent) — an observer-recorded
          // stream stays a complete, exactly-once record of the admitted
          // stream even across recovery.
          for (auto& [lane_index, item] : preserved) {
            // Keep the lane's staging partition in step with its lineage
            // (the global engine is the recovery authority either way).
            lanes_[lane_index]->partition.ApplyBatch(item.batch);
            ApplyJournaled(item.batch, lane_index);
          }
          applied_preserved = true;
          replayed_shed = checkpointer_->DrainShed(
              [&](MutationBatch&& batch) { ApplyJournaled(batch, lanes_.size()); });
        }
        // Snapshot for the log line below: once the lanes respawn they
        // advance applied_seq_ under journal_mu_, which the logging no
        // longer holds.
        std::lock_guard<std::mutex> journal_lock(journal_mu_);
        if (restored) {
          if (checkpointer_->WriteCheckpoint(applied_seq_)) {
            // The fresh checkpoint supersedes every lineage record at or
            // below it; drop them so the lane WALs stay bounded.
            CompactLaneWals();
          }
        }
        recovered_seq = applied_seq_;
      }
      for (auto& lane : lanes_) {
        lane->queue.Reset();
      }
      for (size_t i = 0; i < lanes_.size(); ++i) {
        size_t from_lane = 0;
        for (const auto& [lane_index, item] : preserved) {
          from_lane += lane_index == i ? 1 : 0;
        }
        std::lock_guard<std::mutex> lock(lanes_[i]->mu);
        lanes_[i]->in_flight -= std::min(lanes_[i]->in_flight, from_lane);
        if (lanes_[i]->in_flight == 0) {
          lanes_[i]->drained_cv.notify_all();
        }
      }
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        healthy_ = true;
        // Subtract only what DrainShed actually replayed: a producer racing
        // against recovery may shed after the drain, and that batch must
        // stay counted or the next barrier would never replay it.
        shed_batches_ -= std::min(shed_batches_, static_cast<size_t>(replayed_shed));
        if (applied_preserved) {
          stats_.batches_applied += preserved.size() + replayed_shed;
        } else {
          for (const auto& [lane_index, item] : preserved) {
            stats_.mutations_dropped += item.batch.size();
          }
        }
        if (restored) {
          ++stats_.recoveries;
          stats_.batches_replayed += replayed_lanes + replayed_wal + replayed_shed;
          stats_.lane_batches_replayed += replayed_lanes;
          stats_.shed_batches_replayed += replayed_shed;
        }
      }
      stall_abort_.store(false);
      for (auto& lane : lanes_) {
        lane->stall_abort.store(false);
        std::lock_guard<std::mutex> lock(lane->mu);
        lane->accepting = true;
        lane->dead = false;
      }
      for (auto& lane : lanes_) {
        Lane* raw = lane.get();
        raw->worker = std::thread([this, raw] { LaneLoop(*raw); });
      }
      stopped_ = false;
      // Restart the watchdog after a Stop()-then-Recover() revival. No-op
      // when it is already running — including when this very call runs
      // *on* the watchdog thread (auto-recovery).
      if (config_.watchdog_stall_seconds > 0.0 && !watchdog_.running()) {
        watchdog_.Start({config_.watchdog_poll_seconds, config_.watchdog_stall_seconds},
                        [this](const StallCause& cause) { OnStall(cause); });
      }
      if (restored) {
        GB_LOG(kInfo) << "recovered to batch " << recovered_seq << " ("
                      << replayed_lanes << " lane-lineage, " << replayed_wal
                      << " global-WAL, " << preserved.size() << " queued, "
                      << replayed_shed << " shed batches replayed) in "
                      << wall.Millis() << " ms";
      }
      return restored;
    }
  }

  // Sequence number of the newest batch promoted through the global
  // journal — the durable frontier. After Recover() it is exactly the
  // number of batches the recovered state contains, which is what the
  // crash harness diffs against a fresh prefix run.
  uint64_t applied_seq() {
    std::lock_guard<std::mutex> lock(journal_mu_);
    return applied_seq_;
  }

  // One synchronous scrub pass: the checkpointer's artifacts (checkpoint
  // chain, global journal, shed log) plus every lane lineage. Returns
  // corrupt artifacts found; 0 is a healthy disk or no checkpointer.
  uint64_t ScrubNow() {
    if (checkpointer_ == nullptr) {
      return 0;
    }
    std::lock_guard<std::mutex> journal_lock(journal_mu_);
    const uint64_t checkpointer_corruptions = checkpointer_->Scrub().corruptions;
    // Lane lineages append under journal_mu_ (AppendLaneWal), so the same
    // lock that serializes the global journal serializes this scan.
    uint64_t lane_corruptions = 0;
    for (auto& lane : lanes_) {
      if (!lane->wal_enabled) {
        continue;
      }
      WalScanInfo info = lane->wal.Verify();
      if (!info.clean()) {
        ++lane_corruptions;
        GB_LOG(kWarning) << "scrub: lane lineage " << lane->wal.path()
                         << " torn/corrupt; healing to last checksummed record";
        lane->wal.Heal();
      }
    }
    if (lane_corruptions > 0) {
      // The checkpointer counts its own finds (surfaced via MergeStats);
      // only the lane lineages are accounted here.
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.scrub_corruptions += lane_corruptions;
    }
    return checkpointer_corruptions + lane_corruptions;
  }

  // Drains and shuts down: lanes stop accepting, gutter remainders flush,
  // every queued batch is promoted, workers join, and anything left shed
  // replays. Idempotent; called by the destructor. After a worker crash
  // the un-applied queue leftovers are parked in the durable shed log
  // (recoverable by a later cold-start Recover) or counted dropped, and
  // the shed log is left for that recovery.
  void Stop() {
    // The watchdog's callback may be inside Recover() — which takes
    // stop_mu_ — so stop it *before* acquiring stop_mu_ or Stop deadlocks
    // behind its own watchdog.
    watchdog_.Stop();
    std::lock_guard<std::mutex> stop_lock(stop_mu_);
    if (stopped_) {
      return;
    }
    for (auto& lane : lanes_) {
      std::unique_lock<std::mutex> lock(lane->mu);
      lane->accepting = false;
      FlushLaneLocked(*lane, lock, /*allow_refill=*/false);
    }
    stall_abort_.store(true);  // release workers parked in an injected stall
    for (auto& lane : lanes_) {
      lane->queue.Close();
    }
    for (auto& lane : lanes_) {
      if (lane->worker.joinable()) {
        lane->worker.join();
      }
    }
    for (auto& lane : lanes_) {
      while (std::optional<TimedBatch> leftover = lane->queue.Pop()) {
        const bool shed = checkpointer_ != nullptr && checkpointer_->AppendShed(leftover->batch);
        {
          std::lock_guard<std::mutex> lock(lane->mu);
          if (--lane->in_flight == 0) {
            lane->drained_cv.notify_all();
          }
        }
        std::lock_guard<std::mutex> slock(stats_mu_);
        if (shed) {
          stats_.mutations_shed_to_wal += leftover->batch.size();
          ++shed_batches_;
        } else {
          stats_.mutations_dropped += leftover->batch.size();
        }
      }
    }
    if constexpr (AsyncDeltaEngine<Engine>) {
      // Lane workers have joined, so nothing ticks the mode again: leave
      // the engine reconciled to bitwise-deterministic BSP state.
      std::lock_guard<std::mutex> engine_lock(engine_mu_);
      ReconcileAsync();
    }
    bool have_shed;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      have_shed = shed_batches_ > 0;
    }
    have_shed = have_shed && !AnyLaneDead();
    if (have_shed) {
      ReplayShed();  // engines are idle: every worker has joined
    }
    stopped_ = true;
  }

 private:
  struct TimedBatch {
    MutationBatch batch;
    Timer since_flush;
  };

  // One ingestion lane: everything shard i owns. The mutex guards the
  // gutter, in_flight, accepting, and dead; the queue synchronizes itself; the
  // WAL, wal_seq, and partition are touched only by the lane worker (and
  // by quiescent readers after the barrier handshake).
  struct Lane {
    Lane(size_t index, size_t queue_capacity) : index(index), queue(queue_capacity) {}

    const size_t index;
    mutable std::mutex mu;
    std::condition_variable drained_cv;
    GutterBuffer gutter;
    // Batches taken from the gutter but not yet promoted (queued, mid-push,
    // or being applied). The barrier's phase 2 waits for zero.
    size_t in_flight = 0;
    bool accepting = true;
    // Set when the worker was killed between batches; cleared by Recover().
    bool dead = false;
    BoundedQueue<TimedBatch> queue;
    std::thread worker;
    // Lane-local cooperative cancellation: set by the watchdog verdict so
    // a worker parked in an injected stall sheds its in-hand batch and
    // resumes; consumed (reset) by the worker.
    std::atomic<bool> stall_abort{false};
    bool wal_enabled = false;
    WriteAheadLog wal;
    MutableGraph partition;
  };

  size_t ShardOf(VertexId v) const { return static_cast<size_t>(v) % lanes_.size(); }

  bool AnyLaneDead() const {
    for (const auto& lane : lanes_) {
      std::lock_guard<std::mutex> lock(lane->mu);
      if (lane->dead) {
        return true;
      }
    }
    return false;
  }

  TenantState* GetTenantState(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      it = tenants_
               .emplace(tenant, std::make_unique<TenantState>(tenant, config_.QuotaFor(tenant)))
               .first;
    }
    return it->second.get();
  }

  bool IngestFor(TenantState* state, const EdgeMutation& mutation) {
    if (quarantine_ != nullptr) {
      const AdmissionVerdict verdict = ScreenMutation(mutation, config_.admission);
      if (!verdict.admitted()) {
        QuarantineReject(verdict.reason, MutationBatch{mutation}, state);
        return false;
      }
    }
    if (!state->TryAdmit(1)) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.mutations_quota_rejected;
      ++stats_.batches_quota_rejected;
      return false;
    }
    return RouteAdmitted(mutation);
  }

  // The lane-routing tail of IngestFor: the mutation has already passed the
  // sentinel screen and the quota gate. Also the fast path's escalation
  // target, so an unsafe mutation is never screened or quota-charged twice.
  bool RouteAdmitted(const EdgeMutation& mutation) {
    const bool cross = ShardOf(mutation.src) != ShardOf(mutation.dst);
    Lane& lane = *lanes_[ShardOf(mutation.src)];
    {
      std::unique_lock<std::mutex> lock(lane.mu);
      if (!lane.accepting) {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.mutations_dropped;
        return false;
      }
      lane.gutter.Add(mutation);
      if (lane.gutter.size() >= config_.batch_size) {
        FlushLaneLocked(lane, lock);
      }
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.mutations_enqueued;
    stats_.cross_shard_mutations += cross ? 1 : 0;
    return true;
  }

  // IngestFast's implementation. Screen and quota-admit exactly like
  // IngestFor, then classify under a journal try-lock: safe mutations
  // journal at the next global sequence number and splice in place — no
  // engine_mu_: the apply serializes through journal_mu_ (against batched
  // promotions, maintenance, and checkpoints) plus per-vertex claims, and
  // flips the fast-path epoch around the splice. They bypass the lane
  // gutters and their staging partitions, which remain lineage of the
  // *batched* stream only. Unsafe ones escalate into the owning lane as a
  // refinement micro-batch; so do journal-contended ones, since the fast
  // path never waits on batch-scale work. Safe applies notify the observer
  // under the journal serialization with pseudo-lane lanes_.size() + 1, so
  // an observer-recorded stream stays a complete, in-order record of the
  // admitted stream.
  bool IngestFastFor(TenantState* state, const EdgeMutation& mutation) {
    if constexpr (!FastPathEngine<Engine>) {
      return IngestFor(state, mutation);
    } else {
      if (!config_.fast_path) {
        return IngestFor(state, mutation);
      }
      if (quarantine_ != nullptr) {
        const AdmissionVerdict verdict = ScreenMutation(mutation, config_.admission);
        if (!verdict.admitted()) {
          QuarantineReject(verdict.reason, MutationBatch{mutation}, state);
          return false;
        }
      }
      if (!state->TryAdmit(1)) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.mutations_quota_rejected;
        ++stats_.batches_quota_rejected;
        return false;
      }
      {
        VertexClaims::Guard guard(&claims_, mutation.src, mutation.dst);
        std::unique_lock<std::mutex> journal(journal_mu_, std::try_to_lock);
        // While the async tier is engaged the BSP dependency store is
        // stale, so ClassifyFast cannot reason about it: escalate. Mode
        // flips hold journal_mu_, so a false read stays false here.
        if (journal.owns_lock() && !async_engaged_.load(std::memory_order_acquire) &&
            engine_->ClassifyFast(mutation).safe) {
          {
            // The owning lane's accepting flag stands in for a driver-wide
            // gate: Stop/Recover flip every lane before touching the engine.
            Lane& lane = *lanes_[ShardOf(mutation.src)];
            std::lock_guard<std::mutex> lock(lane.mu);
            if (!lane.accepting) {
              std::lock_guard<std::mutex> slock(stats_mu_);
              ++stats_.mutations_dropped;
              return false;
            }
          }
          const MutationBatch batch{mutation};
          if (observer_) {
            observer_(lanes_.size() + 1, batch);
          }
          ++applied_seq_;
          bool journaled = true;
          if (checkpointer_ != nullptr) {
            journaled = checkpointer_->AppendWal(applied_seq_, batch);
          }
          AppendLaneWal(applied_seq_, batch, ShardOf(mutation.src));
          epoch_.BeginApply();
          const bool applied = engine_->ApplyFastSafe(mutation);
          epoch_.EndApply();
          // journal_mu_ excluded every writer between ClassifyFast and the
          // re-validation inside ApplyFastSafe, so the verdict cannot flip.
          GB_CHECK(applied) << "fast-path re-validation failed under the journal lock";
          if (checkpointer_ != nullptr && !journaled) {
            // The WAL record was lost (injected fault): force a checkpoint
            // so recovery still covers this splice.
            if constexpr (CheckpointableEngine<Engine>) {
              checkpointer_->MaybeCheckpoint(applied_seq_, /*force=*/true);
            }
          }
          fast_counters_.safe_applied.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> slock(stats_mu_);
          ++stats_.mutations_enqueued;
          return true;
        }
      }
      fast_counters_.unsafe_escalated.fetch_add(1, std::memory_order_relaxed);
      return RouteAdmitted(mutation);
    }
  }

  size_t IngestBatchFor(TenantState* state, const MutationBatch& batch) {
    if (batch.empty()) {
      return 0;
    }
    if (quarantine_ != nullptr) {
      const AdmissionVerdict verdict = ScreenBatch(batch, config_.admission);
      if (!verdict.admitted()) {
        QuarantineReject(verdict.reason, batch, state);
        return 0;
      }
    }
    if (!state->TryAdmit(batch.size())) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.mutations_quota_rejected += batch.size();
      ++stats_.batches_quota_rejected;
      return 0;
    }
    // Route by source shard, preserving intra-lane ingest order — all
    // mutations of one (src, dst) pair share a lane, so per-pair order is
    // exactly the producer's.
    std::vector<MutationBatch> per_lane(lanes_.size());
    uint64_t cross = 0;
    for (const EdgeMutation& m : batch) {
      per_lane[ShardOf(m.src)].push_back(m);
      cross += ShardOf(m.src) != ShardOf(m.dst) ? 1 : 0;
    }
    size_t accepted = 0;
    size_t dropped = 0;
    for (size_t i = 0; i < per_lane.size(); ++i) {
      if (per_lane[i].empty()) {
        continue;
      }
      Lane& lane = *lanes_[i];
      std::unique_lock<std::mutex> lock(lane.mu);
      for (size_t j = 0; j < per_lane[i].size(); ++j) {
        if (!lane.accepting) {  // re-checked: FlushLaneLocked drops the lock
          dropped += per_lane[i].size() - j;
          break;
        }
        lane.gutter.Add(per_lane[i][j]);
        ++accepted;
        if (lane.gutter.size() >= config_.batch_size) {
          FlushLaneLocked(lane, lock);
        }
      }
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.mutations_enqueued += accepted;
    stats_.mutations_dropped += dropped;
    stats_.cross_shard_mutations += cross;
    return accepted;
  }

  // Takes the lane's gutter as a batch and moves it toward the worker.
  // Caller holds `lock` on lane.mu; the queue handoff happens unlocked
  // (in_flight covers the window).
  //
  // Overflow on a full lane queue follows the policy: kBlock waits (the
  // backpressure this producer feels), kDropNewest drops, kShedToWal sheds
  // into the *global* sequence-tagged shed log, kShedOldest evicts the
  // lane's oldest queued batch into the shed log (or drops it) to admit
  // the fresh one, and kDegrade puts the batch *back* into the lane's
  // gutter to be re-coalesced and retried — unless `allow_refill` is false
  // (query barrier / shutdown), where kDegrade falls back to a lossless
  // blocking push. A closed queue (shutdown or recovery) sheds durably
  // when a checkpointer is attached and drops otherwise, under every
  // policy. The Refill keeps the gutter's age epoch (see GutterBuffer), so
  // the lane's monotonic stale-flush deadline survives degrade churn.
  void FlushLaneLocked(Lane& lane, std::unique_lock<std::mutex>& lock,
                       bool allow_refill = true) {
    if (lane.gutter.empty()) {
      return;
    }
    if (config_.overflow == OverflowPolicy::kDegrade && allow_refill &&
        !lane.queue.closed() && lane.queue.size() >= lane.queue.capacity()) {
      // Coalesce under pressure: leave the batch in the gutter (duplicates
      // die at the eventual Take) instead of churning Take/Refill on every
      // ingested mutation while the queue stays full.
      UpdateGovernorPressure();
      return;
    }
    TimedBatch item;
    uint64_t coalesced = 0;
    item.batch = lane.gutter.Take(config_.coalesce, &coalesced);
    item.since_flush.Reset();
    const size_t mutations = item.batch.size();
    ++lane.in_flight;
    lock.unlock();
    bool pushed = false;
    double waited = 0.0;
    std::optional<TimedBatch> evicted;
    if (lane.queue.TryPush(std::move(item))) {
      pushed = true;
    } else if (config_.overflow == OverflowPolicy::kBlock ||
               (config_.overflow == OverflowPolicy::kDegrade && !allow_refill)) {
      Timer wait;
      pushed = lane.queue.Push(std::move(item));
      waited = wait.Seconds();
    } else if (config_.overflow == OverflowPolicy::kShedOldest) {
      pushed = lane.queue.PushEvictOldest(std::move(item), &evicted);
    }
    const bool closed = !pushed && lane.queue.closed();
    const bool refill = !pushed && !closed && allow_refill &&
                        config_.overflow == OverflowPolicy::kDegrade;
    bool shed = false;
    if (!pushed && !refill && config_.overflow != OverflowPolicy::kDropNewest &&
        checkpointer_ != nullptr) {
      shed = checkpointer_->AppendShed(item.batch);
    }
    bool evicted_shed = false;
    if (evicted.has_value() && checkpointer_ != nullptr) {
      evicted_shed = checkpointer_->AppendShed(evicted->batch);
    }
    lock.lock();
    if (evicted.has_value() && --lane.in_flight == 0) {
      lane.drained_cv.notify_all();
    }
    if (!pushed) {
      if (refill) {
        lane.gutter.Refill(std::move(item.batch));
      }
      if (--lane.in_flight == 0) {
        lane.drained_cv.notify_all();
      }
    }
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      stats_.mutations_coalesced += coalesced;
      stats_.queue_wait_seconds += waited;
      if (evicted.has_value()) {
        // The evicted batch leaves the pipeline un-applied: account it
        // shed (durable) or dropped; its in-flight slot was released above.
        ++stats_.shed_oldest_evictions;
        if (evicted_shed) {
          stats_.mutations_shed_to_wal += evicted->batch.size();
          ++shed_batches_;
        } else {
          stats_.mutations_dropped += evicted->batch.size();
        }
      }
      if (!pushed && !refill) {
        if (shed) {
          stats_.mutations_shed_to_wal += mutations;
          ++shed_batches_;
        } else {
          stats_.mutations_dropped += mutations;
        }
      }
    }
    UpdateGovernorPressure();
  }

  void LaneLoop(Lane& lane) {
    for (;;) {
      Timer poll;
      std::optional<TimedBatch> item =
          lane.queue.PopFor(std::chrono::duration<double>(NextPollSeconds(lane)));
      if (item.has_value()) {
        if (ApplyLane(lane, std::move(*item)) || LaneKilled(lane)) {
          return;  // stall-aborted globally or killed: recovery owns the lane
        }
        // One maintenance increment per batch keeps compaction overlapped
        // with a saturated stream (the quiescent window between applies).
        GlobalMaintenanceTick();
      } else if (lane.queue.closed()) {
        if (lane.queue.Empty()) {
          break;
        }
        continue;
      } else if (lane.index == 0) {
        // Idle poll: advance a pending global rewrite. One lane suffices —
        // the budget bounds each step, not the number of ticking threads.
        // The empty poll is the idle window the adaptive budget sizes
        // ticks against; feed the observation before spending it.
        budget_.RecordIdle(poll.Seconds());
        GlobalMaintenanceTick();
        AsyncTick();   // refresh overload state; propagate or reconcile
        MaybeScrub();  // cadence-gated artifact verification
      }
      // The stale check runs after *every* iteration — successful pops
      // included, so a busy lane queue cannot starve a stale gutter —
      // against the monotonic deadline NextPollSeconds carries across
      // polls.
      if (TryFlushStaleLane(lane)) {
        return;  // stall-aborted globally or killed during the direct apply
      }
    }
  }

  // The lane worker's next wait: the flush interval, shortened so the wait
  // expires exactly when the gutter's oldest mutation goes stale — a
  // monotonic deadline carried across polls, so a pop or short timeout
  // does not re-arm the full interval. A gutter already past its deadline
  // but blocked by an in-flight batch (a direct apply would reorder) gets
  // a short back-off instead of a spin.
  double NextPollSeconds(const Lane& lane) const {
    std::lock_guard<std::mutex> lock(lane.mu);
    if (lane.gutter.empty()) {
      return config_.flush_interval_seconds;
    }
    const double remaining = config_.flush_interval_seconds - lane.gutter.AgeSeconds();
    if (remaining <= 0.0) {
      return lane.in_flight > 0 ? 1e-3 : 1e-4;
    }
    return remaining;
  }

  // Flushes a stale lane gutter and applies it directly — never through
  // the queue (the worker must not block behind itself), and only when
  // in_flight == 0 so ordering is preserved. Returns true when the worker
  // must exit (globally stall-aborted mid-apply, or killed after it).
  bool TryFlushStaleLane(Lane& lane) {
    TimedBatch stale;
    uint64_t coalesced = 0;
    {
      std::unique_lock<std::mutex> lock(lane.mu);
      if (lane.in_flight != 0 || lane.gutter.empty() ||
          lane.gutter.AgeSeconds() < config_.flush_interval_seconds) {
        return false;
      }
      StallWatchdog::StageScope stage(&watchdog_, PipelineStage::kGutterFlush, lane.index);
      stale.batch = lane.gutter.Take(config_.coalesce, &coalesced);
      stale.since_flush.Reset();
      ++lane.in_flight;
    }
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      stats_.mutations_coalesced += coalesced;
    }
    return ApplyLane(lane, std::move(stale)) || LaneKilled(lane);
  }

  // The kWorkerKill site fires between batches (after an apply completes),
  // so the engine is always left at a batch boundary — a crash never tears
  // a refinement. The lane queue closes so producers stop blocking behind
  // the dead consumer (their pushes fail over to the shed/drop path);
  // queued batches stay poppable for Recover().
  bool LaneKilled(Lane& lane) {
    if (!GB_FAULT_POINT(injector_, FaultSite::kWorkerKill)) {
      return false;
    }
    lane.queue.Close();
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.dead = true;
    GB_LOG(kWarning) << "FaultInjector: lane " << lane.index << " worker killed";
    lane.drained_cv.notify_all();
    return true;
  }

  // Stage, then promote. Staging (shard WAL append + partition apply) runs
  // concurrently across lanes; promotion serializes on the engine mutex,
  // whose acquisition order defines the global apply order. Returns true
  // when the apply was cancelled by *global* stall recovery — the worker
  // must exit so Recover() can join it; the in-hand batch has been shed
  // durably (or counted dropped) so recovery's shed drain replays it. A
  // *lane-local* cancellation sheds the in-hand batch the same way but
  // returns false: the lane resumes on its own, siblings never noticed.
  bool ApplyLane(Lane& lane, TimedBatch item) {
    if (GB_FAULT_POINT(injector_, FaultSite::kStageStall)) {
      // Injected hung apply: park (cooperatively) with this lane's kApply
      // heartbeat reading busy until a cancellation token releases it.
      // Parks *outside* engine_mu_ — sibling lanes keep promoting the
      // whole time; a stage that wedged while holding the engine could be
      // detected but never joined (see watchdog.h).
      StallWatchdog::StageScope stage(&watchdog_, PipelineStage::kApply, lane.index);
      GB_LOG(kWarning) << "FaultInjector: lane " << lane.index << " apply stage stalled";
      while (!stall_abort_.load() && !lane.stall_abort.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const bool global_abort = stall_abort_.load();
      lane.stall_abort.store(false);  // consume the lane-local token
      const bool shed = checkpointer_ != nullptr && checkpointer_->AppendShed(item.batch);
      {
        std::lock_guard<std::mutex> lock(lane.mu);
        if (--lane.in_flight == 0) {
          lane.drained_cv.notify_all();
        }
      }
      std::lock_guard<std::mutex> slock(stats_mu_);
      if (shed) {
        stats_.mutations_shed_to_wal += item.batch.size();
        ++shed_batches_;
      } else {
        stats_.mutations_dropped += item.batch.size();
      }
      if (!global_abort) {
        // Lane-local recovery is complete: the in-hand batch is parked in
        // the shed log for the next barrier and this lane resumes popping.
        healthy_ = true;
      }
      return global_abort;
    }
    Timer wall;
    EngineStats applied;
    uint64_t rebuilds = 0;
    bool async_applied = false;
    bool async_stepped = false;
    double async_residual = 0.0;
    uint64_t priority_delta = 0;
    {
      StallWatchdog::StageScope stage(&watchdog_, PipelineStage::kApply, lane.index);
      // The lane lineage is journaled at promotion time (AppendLaneWal,
      // under journal_mu_) so its records carry the same global sequence
      // numbers as the checkpointer's journal — that alignment is what
      // lets Recover replay the lineages in parallel and still land on
      // the exact pre-crash promotion order.
      lane.partition.ApplyBatch(item.batch);
      if (config_.background_compaction) {
        // One bounded increment per staged batch keeps the partition's
        // rewrites overlapped with its own stream.
        lane.partition.MaintenanceStep(config_.maintenance_budget_edges);
      }
      std::lock_guard<std::mutex> engine_lock(engine_mu_);
      SyncAsyncMode();
      if constexpr (AsyncDeltaEngine<Engine>) {
        if (async_engaged_.load(std::memory_order_relaxed)) {
          AsyncApplyJournaled(item.batch, lane.index);  // reconciles on WAL loss
          async_applied = true;
          if (async_engaged_.load(std::memory_order_relaxed) &&
              engine_->AsyncResidual() > 0.0) {
            // One bounded propagation round rides along with every promote,
            // so served values chase the mutations they absorb even when no
            // lane ever goes idle. Priority-lane forks happen inside the
            // engine; attribute them here where stats_mu_ is available.
            const uint64_t before = TaskArena::Instance().counters().tasks_priority;
            engine_->AsyncStep(config_.async_step_budget);
            priority_delta = TaskArena::Instance().counters().tasks_priority - before;
            async_stepped = true;
          }
          async_residual = engine_->AsyncResidual();
        }
      }
      if (!async_applied) {
        ApplyJournaled(item.batch, lane.index);
      }
      applied = engine_->stats();
      if constexpr (GraphMaintainableEngine<Engine>) {
        rebuilds = engine_->mutable_graph()->adaptive_rebuilds();
      }
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.batches_applied;
      ++stats_.shard_batches_staged;
      // The graph's rebuild counter is cumulative; mirror, don't sum.
      stats_.adaptive_rebuilds = rebuilds;
      stats_.seconds += applied.seconds;
      stats_.mutation_seconds += applied.mutation_seconds;
      stats_.edges_processed += applied.edges_processed;
      stats_.iterations += applied.iterations;
      stats_.tasks_forked += applied.tasks_forked;
      stats_.tasks_stolen += applied.tasks_stolen;
      stats_.inline_runs += applied.inline_runs;
      stats_.tasks_priority += applied.tasks_priority + priority_delta;
      stats_.flush_latency_seconds += item.since_flush.Seconds();
      if (async_applied) {
        ++stats_.async_applies;
        stats_.async_steps += async_stepped ? 1 : 0;
        stats_.async_residual = async_residual;
      }
    }
    {
      // Every lane's promote feeds the one global governor: the EWMA sees
      // all apply latencies, the pressure input sees the total depth.
      std::lock_guard<std::mutex> glock(governor_mu_);
      governor_.RecordApply(wall.Seconds());
      governor_.Update(QueuedDepth());
    }
    std::lock_guard<std::mutex> lock(lane.mu);
    if (--lane.in_flight == 0) {
      lane.drained_cv.notify_all();
    }
    return false;
  }

  // Every engine apply funnels through here: notify the observer, assign
  // the next global sequence number, journal write-ahead, apply, checkpoint
  // on cadence. Caller holds engine_mu_; journal_mu_ is taken here so
  // fast-path splices interleave only at batch boundaries, and the observer
  // runs under it so observer order is exactly WAL/apply order even with
  // fast-path applies in the mix.
  void ApplyJournaled(const MutationBatch& batch, size_t observer_lane) {
    std::lock_guard<std::mutex> journal_lock(journal_mu_);
    if (observer_) {
      observer_(observer_lane, batch);
    }
    ++applied_seq_;
    bool journaled = true;
    if (checkpointer_ != nullptr) {
      journaled = checkpointer_->AppendWal(applied_seq_, batch);
    }
    AppendLaneWal(applied_seq_, batch, observer_lane);
    engine_->ApplyMutations(batch);
    if (checkpointer_ != nullptr) {
      if constexpr (CheckpointableEngine<Engine>) {
        checkpointer_->MaybeCheckpoint(applied_seq_, /*force=*/!journaled);
        CompactLaneWals();
      }
    }
  }

  // Appends one promoted batch to its owning lane's WAL lineage, keyed by
  // the GLOBAL sequence number just assigned under journal_mu_ (held by
  // every caller). Batches promoted outside any lane — shed replays and
  // fast-path pseudo-lanes — hash by sequence so the lineages stay a
  // partition of the global journal.
  void AppendLaneWal(uint64_t seq, const MutationBatch& batch, size_t observer_lane) {
    if (lanes_.empty() || !lanes_[0]->wal_enabled) {
      return;
    }
    const size_t target =
        observer_lane < lanes_.size() ? observer_lane : static_cast<size_t>(seq % lanes_.size());
    if (lanes_[target]->wal.Append(seq, batch)) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.shard_wal_appends;
    }
  }

  // Drops every lane-lineage record already covered by the oldest retained
  // checkpoint (no restore can start below it). Caller holds journal_mu_.
  // Cheap when nothing changed: one directory listing per call, rewrites
  // only on cutoff movement.
  void CompactLaneWals() {
    if (checkpointer_ == nullptr || lanes_.empty() || !lanes_[0]->wal_enabled) {
      return;
    }
    const uint64_t cutoff = checkpointer_->OldestRetainedCheckpointSeq();
    if (cutoff == 0 || cutoff == lane_wal_cutoff_) {
      return;
    }
    lane_wal_cutoff_ = cutoff;
    for (auto& lane : lanes_) {
      lane->wal.DropThrough(cutoff);
    }
  }

  // Lane-parallel native recovery: scan every lane lineage concurrently
  // for records past `after_seq`, merge by global sequence number, apply
  // serially in that order. Stops at the first gap or duplicate (a lost or
  // compacted lineage segment) and leaves the rest to the caller's global
  // journal sweep, which starts from wherever this landed. Caller holds
  // engine_mu_ and journal_mu_; lanes are joined. Returns batches applied.
  uint64_t ReplayLaneLineages(uint64_t after_seq) {
    if (lanes_.empty() || !lanes_[0]->wal_enabled) {
      return 0;
    }
    std::vector<std::vector<std::pair<uint64_t, MutationBatch>>> tails(lanes_.size());
    {
      std::vector<std::thread> scanners;
      scanners.reserve(lanes_.size());
      for (size_t i = 0; i < lanes_.size(); ++i) {
        scanners.emplace_back([this, i, after_seq, &tails] {
          WalScanInfo info;
          lanes_[i]->wal.Replay(
              after_seq,
              [&](uint64_t seq, MutationBatch&& batch) {
                tails[i].emplace_back(seq, std::move(batch));
              },
              static_cast<size_t>(-1), &info);
          if (!info.clean()) {
            // A kill mid-append tore this lineage's tail. Truncate it back
            // to the last checksummed record NOW, so post-recovery appends
            // extend a verifiable lineage instead of landing after garbage.
            lanes_[i]->wal.Heal();
          }
        });
      }
      for (std::thread& t : scanners) {
        t.join();
      }
    }
    std::vector<std::pair<uint64_t, MutationBatch>> merged;
    for (auto& tail : tails) {
      merged.insert(merged.end(), std::make_move_iterator(tail.begin()),
                    std::make_move_iterator(tail.end()));
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    uint64_t replayed = 0;
    uint64_t expect = after_seq + 1;
    for (auto& [seq, batch] : merged) {
      if (seq != expect) {
        GB_LOG(kWarning) << "lane lineage gap at seq " << expect << " (next record " << seq
                         << "); handing off to the global journal sweep";
        break;
      }
      // Lineage records are re-promotions of already-observed batches:
      // apply without re-journaling, observer silent (same contract as
      // the global WAL tail).
      engine_->ApplyMutations(batch);
      applied_seq_ = seq;
      ++expect;
      ++replayed;
    }
    return replayed;
  }

  // Lane-0-only (single ticking thread, so the cadence timer needs no
  // lock): run a scrub pass once the configured interval of wall time has
  // passed since the last one. Rides the idle poll — a saturated pipeline
  // defers scrubbing, which is the right priority order.
  void MaybeScrub() {
    if (checkpointer_ == nullptr || config_.scrub_interval_seconds <= 0.0 ||
        scrub_timer_.Seconds() < config_.scrub_interval_seconds) {
      return;
    }
    scrub_timer_.Reset();
    ScrubNow();
  }

  // One background-compaction increment on the global graph, after every
  // promoted batch and in lane 0's idle polls. Holding the engine mutex
  // makes this the epoch barrier: no apply or query can observe a
  // half-built shadow, and a completed rewrite flips in under the same
  // lock every reader takes.
  void GlobalMaintenanceTick() {
    if constexpr (GraphMaintainableEngine<Engine>) {
      if (!config_.background_compaction) {
        return;
      }
      // Adaptive budget: sized from lane 0's observed idle windows and the
      // per-edge rewrite cost, falling back to the configured constant
      // until both signals have data (see maintenance_budget.h).
      const size_t budget = budget_.Next();
      SlackCsr::CompactionStats compaction;
      uint64_t copied = 0;
      Timer step;
      {
        std::lock_guard<std::mutex> engine_lock(engine_mu_);
        std::lock_guard<std::mutex> journal_lock(journal_mu_);  // vs fast-path splices
        MutableGraph* graph = engine_->mutable_graph();
        graph->MaintenanceStep(budget);
        compaction = graph->compaction_stats();
        // Any lane may tick, so the cumulative-counter delta is taken
        // under the engine mutex.
        copied = compaction.background_edges_copied - last_maintenance_edges_;
        last_maintenance_edges_ = compaction.background_edges_copied;
      }
      // Lock wait counts as cost, which rightly shrinks the budget when
      // the engine is contended.
      budget_.RecordStep(copied, step.Seconds());
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.maintenance_steps = compaction.maintenance_steps;
      stats_.background_compactions = compaction.background_compactions;
      stats_.background_compaction_edges = compaction.background_edges_copied;
      stats_.forced_sync_compactions = compaction.forced_sync_compactions;
      stats_.maintenance_budget_edges = budget;
    }
  }

  // ----- Async delta-accumulative mode (INTERNALS §14) ---------------------
  //
  // Mode flips hold BOTH engine_mu_ and journal_mu_: the fast path splices
  // under journal_mu_ alone, and a splice racing EnterAsyncMode's aggregate
  // rebuild (or the reconcile's recompute) would tear it. async_engaged_
  // mirrors engine_->async_mode() so either lock — or neither, for
  // advisory reads — observes the flip race-free. The governor lives under
  // governor_mu_, stats under stats_mu_. While engaged: IngestFastFor
  // escalates (ClassifyFast reasons about the stale BSP dependency store),
  // cadence checkpoints are suppressed (same staleness), the lane lineages
  // and the global WAL keep journaling every batch — recovery replays them
  // through BSP ApplyMutations, landing on a legitimate BSP state of the
  // final graph — and the observer stream stays a complete record.

  // True when policy, overflow policy, and the governor agree the engine
  // should be running async.
  bool AsyncWanted() const {
    if (config_.async_mode == AsyncModePolicy::kOff ||
        config_.overflow != OverflowPolicy::kDegrade) {
      return false;
    }
    std::lock_guard<std::mutex> glock(governor_mu_);
    return governor_.degraded();
  }

  // Flips the engine to match AsyncWanted(). Caller holds engine_mu_.
  void SyncAsyncMode() {
    if constexpr (AsyncDeltaEngine<Engine>) {
      const bool want = AsyncWanted();
      const bool engaged = async_engaged_.load(std::memory_order_relaxed);
      if (want && !engaged) {
        double residual = 0.0;
        {
          std::lock_guard<std::mutex> journal_lock(journal_mu_);
          engine_->EnterAsyncMode();
          async_engaged_.store(true, std::memory_order_release);
          residual = engine_->AsyncResidual();
        }
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.async_entries;
        stats_.async_residual = residual;
      } else if (!want && engaged) {
        ReconcileAsync();
      }
    }
  }

  // One reconciling barrier: async -> BSP (a from-scratch refinement on the
  // final graph restores bitwise-deterministic state), then a forced
  // checkpoint — cadence checkpoints were suppressed across the async
  // window, so the store must re-cover the frontier now. No-op when the
  // engine is already synchronous. Caller holds engine_mu_ but not
  // stats_mu_.
  void ReconcileAsync() {
    if constexpr (AsyncDeltaEngine<Engine>) {
      if (!async_engaged_.load(std::memory_order_relaxed)) {
        return;
      }
      {
        std::lock_guard<std::mutex> journal_lock(journal_mu_);
        engine_->ExitAsyncReconcile();
        async_engaged_.store(false, std::memory_order_release);
        if (checkpointer_ != nullptr) {
          if constexpr (CheckpointableEngine<Engine>) {
            StallWatchdog::StageScope stage(&watchdog_, PipelineStage::kCheckpoint);
            checkpointer_->WriteCheckpoint(applied_seq_);
          }
        }
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.async_reconciles;
      stats_.async_residual = 0.0;
    }
  }

  // The async counterpart of ApplyJournaled: notify the observer, journal
  // write-ahead, then the barrier-free apply. No cadence checkpoint — the
  // dependency store is stale while async, so a snapshot here would be
  // unrecoverable; a lost WAL record instead forces an immediate
  // reconcile, whose checkpoint supersedes it. Caller holds engine_mu_.
  void AsyncApplyJournaled(const MutationBatch& batch, size_t observer_lane) {
    if constexpr (AsyncDeltaEngine<Engine>) {
      bool journaled = true;
      {
        std::lock_guard<std::mutex> journal_lock(journal_mu_);
        if (observer_) {
          observer_(observer_lane, batch);
        }
        ++applied_seq_;
        if (checkpointer_ != nullptr) {
          journaled = checkpointer_->AppendWal(applied_seq_, batch);
        }
        AppendLaneWal(applied_seq_, batch, observer_lane);
        engine_->AsyncApplyMutations(batch);
      }
      if (checkpointer_ != nullptr && !journaled) {
        GB_LOG(kWarning) << "async apply lost its WAL record; reconciling to a checkpoint";
        ReconcileAsync();
      }
    }
  }

  // An idle-window async round on lane 0: refresh the governor (a quiet
  // queue is what clears degraded mode), flip the engine to match, and —
  // while engaged and unconverged — run one bounded propagation round.
  // Running on every idle poll is what makes the mode self-clearing
  // without waiting for a query barrier, and what drives the residual to
  // zero once ingestion pauses.
  void AsyncTick() {
    if constexpr (AsyncDeltaEngine<Engine>) {
      if (config_.async_mode == AsyncModePolicy::kOff ||
          config_.overflow != OverflowPolicy::kDegrade) {
        return;
      }
      {
        std::lock_guard<std::mutex> glock(governor_mu_);
        governor_.Update(QueuedDepth());
      }
      bool stepped = false;
      double residual = 0.0;
      uint64_t priority_delta = 0;
      {
        std::lock_guard<std::mutex> engine_lock(engine_mu_);
        SyncAsyncMode();
        if (async_engaged_.load(std::memory_order_relaxed) &&
            engine_->AsyncResidual() > 0.0) {
          const uint64_t before = TaskArena::Instance().counters().tasks_priority;
          residual = engine_->AsyncStep(config_.async_step_budget);
          priority_delta = TaskArena::Instance().counters().tasks_priority - before;
          stepped = true;
        }
      }
      if (stepped) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.async_steps;
        stats_.async_residual = residual;
        stats_.tasks_priority += priority_delta;
      }
    }
  }

  // Applies batches parked in the global shed log through the journaled
  // path, in shed-sequence order — one deterministic global order no
  // matter which lane shed them. shed_replay_mu_ serializes concurrent
  // barriers so a batch is never applied twice; the engine lock orders the
  // replay against every lane worker. The observer sees replayed batches
  // with the pseudo-lane index lanes_.size() ("shed replay"), so an
  // observer-driven re-run still captures the true global apply order.
  void ReplayShed() {
    if (checkpointer_ == nullptr) {
      return;
    }
    std::lock_guard<std::mutex> replay_lock(shed_replay_mu_);
    uint64_t replayed = 0;
    EngineStats summed;
    {
      std::lock_guard<std::mutex> engine_lock(engine_mu_);
      if constexpr (AsyncDeltaEngine<Engine>) {
        // Shed batches replay through BSP ApplyMutations; reconcile inside
        // this engine scope so a racing AsyncTick cannot re-enter async
        // between the barrier and the drain.
        ReconcileAsync();
      }
      replayed = checkpointer_->DrainShed([&](MutationBatch&& batch) {
        ApplyJournaled(batch, lanes_.size());
        const EngineStats& applied = engine_->stats();
        summed.seconds += applied.seconds;
        summed.mutation_seconds += applied.mutation_seconds;
        summed.edges_processed += applied.edges_processed;
        summed.iterations += applied.iterations;
        summed.tasks_forked += applied.tasks_forked;
        summed.tasks_stolen += applied.tasks_stolen;
        summed.inline_runs += applied.inline_runs;
        summed.tasks_priority += applied.tasks_priority;
      });
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.shed_batches_replayed += replayed;
    stats_.batches_applied += replayed;
    stats_.seconds += summed.seconds;
    stats_.mutation_seconds += summed.mutation_seconds;
    stats_.edges_processed += summed.edges_processed;
    stats_.iterations += summed.iterations;
    stats_.tasks_forked += summed.tasks_forked;
    stats_.tasks_stolen += summed.tasks_stolen;
    stats_.inline_runs += summed.inline_runs;
    stats_.tasks_priority += summed.tasks_priority;
    shed_batches_ = shed_batches_ >= replayed ? shed_batches_ - replayed : 0;
  }

  // Watchdog verdict: some lane's stage exceeded the stall timeout. Runs
  // on the watchdog thread, outside the watchdog's lock. Marks the driver
  // unhealthy, then releases the stalled lane's worker via its lane-local
  // token — the worker sheds its in-hand batch durably and resumes, and
  // sibling lanes never stop (the park is outside the engine mutex). With
  // auto-recovery configured, escalates to the full global Recover() on
  // top: restore, replay WAL + queued + shed, restart every lane. The
  // driver then reports unhealthy until that escalation has finished.
  void OnStall(const StallCause& cause) {
    GB_LOG(kWarning) << "watchdog: lane " << cause.lane << " stage "
                     << PipelineStageName(cause.stage) << " stalled for "
                     << cause.stalled_seconds << " s";
    const bool escalate = config_.watchdog_auto_recover && checkpointer_ != nullptr;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.stalls_detected;
      healthy_ = false;
      escalating_ = escalate;
    }
    if (cause.lane < lanes_.size()) {
      lanes_[cause.lane]->stall_abort.store(true);  // lane-local release
    }
    if (escalate) {
      const bool recovered = Recover();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.watchdog_recoveries += recovered ? 1 : 0;
        escalating_ = false;
      }
      watchdog_.ClearStall();
    }
  }

  // Total queued depth across every lane — the governor's pressure input,
  // which is what makes degrade fire on any overloaded lane and clear only
  // when pressure recedes on all of them.
  size_t QueuedDepth() const {
    size_t depth = 0;
    for (const auto& lane : lanes_) {
      depth += lane->queue.size();
    }
    return depth;
  }

  void UpdateGovernorPressure() {
    std::lock_guard<std::mutex> lock(governor_mu_);
    governor_.Update(QueuedDepth());
  }

  void QuarantineReject(RejectReason reason, const MutationBatch& batch, TenantState* state) {
    const bool parked = quarantine_->Append(reason, batch);
    if (parked) {
      state->CountQuarantined(batch.size());
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (parked) {
      ++stats_.batches_quarantined;
      stats_.mutations_quarantined += batch.size();
    } else {
      stats_.mutations_dropped += batch.size();
    }
    GB_LOG(kWarning) << "admission: rejected batch of " << batch.size() << " mutations ("
                     << RejectReasonName(reason)
                     << (parked ? "); quarantined" : "); dead-letter append failed, dropped");
  }

  Engine* engine_;
  DriverConfig config_;
  // The one overload governor, fed by every lane: the EWMA sees all apply
  // latencies, the pressure input the total queued depth. Guarded by
  // governor_mu_ (a leaf lock).
  AdmissionGovernor governor_;
  Checkpointer<Engine>* checkpointer_;
  FaultInjector* injector_;

  std::vector<std::unique_ptr<Lane>> lanes_;

  std::mutex engine_mu_;  // held while the engine is applied or snapshotted
  // Journal mutex, nested strictly *inside* engine_mu_ (never the reverse):
  // serializes applied_seq_, observer_ invocation, the WAL append order,
  // and every write to the engine/graph — batched promotions (via
  // ApplyJournaled), global maintenance, checkpoint writes, recovery
  // restore, and fast-path splices. The fast path takes only this mutex,
  // never engine_mu_, which is what keeps safe single-update applies free
  // of the engine lock. Lane mutexes may be taken under it (leafward).
  std::mutex journal_mu_;
  uint64_t applied_seq_ = 0;
  // Oldest retained checkpoint seq the lane lineages were last compacted
  // through (guarded by journal_mu_; see CompactLaneWals).
  uint64_t lane_wal_cutoff_ = 0;
  // Lane-0-only scrub cadence (see MaybeScrub).
  Timer scrub_timer_;
  ApplyObserver observer_;

  // Fast-path state (config.fast_path; see src/driver/fast_path.h).
  VertexClaims claims_;
  FastPathEpoch epoch_;
  FastPathCounters fast_counters_;

  mutable std::mutex stats_mu_;
  EngineStats stats_;
  // Batches currently parked in the global shed log, guarded by stats_mu_;
  // each drain subtracts only what it actually replayed (a producer racing
  // a barrier may shed behind the drain).
  size_t shed_batches_ = 0;
  // False from a watchdog verdict until the stalled lane's local recovery
  // (shed the in-hand batch, resume) or a global Recover() completes.
  bool healthy_ = true;
  // True while a watchdog verdict's auto-Recover() escalation is pending
  // or running; healthy() stays false until it has finished.
  bool escalating_ = false;

  mutable std::mutex governor_mu_;

  // One watchdog over a lanes x stages heartbeat table; each lane's worker
  // heartbeats its own slots, the poller renders per-(lane, stage) verdicts.
  StallWatchdog watchdog_;
  // Global cooperative cancellation: set by Recover()/Stop() so a worker
  // parked in an injected stall sheds its in-hand batch and *exits* (the
  // lane-local token makes it shed and resume instead).
  std::atomic<bool> stall_abort_{false};

  std::mutex shed_replay_mu_;  // serializes concurrent shed-log drains

  // True while the engine runs the async delta-accumulative tier. Mirrors
  // engine_->async_mode(): flips happen under engine_mu_ + journal_mu_
  // together, so a holder of either lock reads it race-free; lock-free
  // reads (acquire) are advisory (fast-path gate, stats labels).
  std::atomic<bool> async_engaged_{false};
  // Adaptive maintenance budget, fed from lane 0's idle polls and the
  // global graph's per-edge rewrite cost (declared after config_: seeded
  // from the already-moved-into config).
  MaintenanceBudget budget_{config_.maintenance_budget_edges};
  // Cumulative background_edges_copied at the last global tick (guarded by
  // engine_mu_; see GlobalMaintenanceTick).
  uint64_t last_maintenance_edges_ = 0;

  std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;
  // The session-less surface's tenant (""), resolved once at construction
  // so Ingest/IngestFast/IngestBatch take no lock to find it. Stable:
  // tenants_ never erases.
  TenantState* default_tenant_ = nullptr;

  std::unique_ptr<Quarantine> quarantine_;

  std::mutex stop_mu_;  // serializes Stop callers; guards stopped_
  bool stopped_ = false;
};

}  // namespace graphbolt

#endif  // SRC_SHARD_SHARDED_DRIVER_H_
