// Ligra-style vertex subsets (frontiers).
//
// A VertexSubset is the set of vertices active in a processing step. It is
// held in sparse form (packed id vector) with an optional dense membership
// bitset built on demand; engines choose representation by |subset| like
// Ligra's direction optimization.
#ifndef SRC_ENGINE_VERTEX_SUBSET_H_
#define SRC_ENGINE_VERTEX_SUBSET_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/graph/types.h"
#include "src/parallel/parallel_for.h"
#include "src/parallel/reducer.h"
#include "src/util/bitset.h"

namespace graphbolt {

// Ligra's density threshold: a frontier is dense once its out-edges
// exceed |E| / 20. EdgeMap's direction choice (the default of
// EdgeMapOptions::denseness_denominator), GraphBoltEngine's refinement
// levels, and FrontierBuilder::TakeAuto (on the vertex axis: past 1/20th
// of the universe, sweeping bits beats packing) all use this one value.
inline constexpr uint64_t kDenseFrontierDenominator = 20;

// The ids in [0, universe) that satisfy `pred`, ascending. A blocked
// two-pass pack — per-block counts, a prefix sum, then a parallel fill, the
// same shape as ParallelPrefixSum — so a large universe is swept by the
// whole arena while block order keeps the result sorted. `pred` is called
// concurrently, once per id per pass.
template <typename Pred>
std::vector<VertexId> PackIds(VertexId universe, const Pred& pred) {
  constexpr size_t kBlock = 4096;
  const size_t n = universe;
  std::vector<VertexId> ids;
  if (n < 2 * kBlock) {
    for (VertexId v = 0; v < universe; ++v) {
      if (pred(v)) {
        ids.push_back(v);
      }
    }
    return ids;
  }
  const size_t blocks = (n + kBlock - 1) / kBlock;
  std::vector<size_t> offsets(blocks);
  ParallelFor(0, blocks, [&](size_t b) {
    const size_t hi = std::min(n, (b + 1) * kBlock);
    size_t count = 0;
    for (size_t v = b * kBlock; v < hi; ++v) {
      count += pred(static_cast<VertexId>(v)) ? 1 : 0;
    }
    offsets[b] = count;
  }, /*grain=*/1);
  ids.resize(ExclusivePrefixSum(offsets));
  ParallelFor(0, blocks, [&](size_t b) {
    const size_t hi = std::min(n, (b + 1) * kBlock);
    size_t out = offsets[b];
    for (size_t v = b * kBlock; v < hi; ++v) {
      if (pred(static_cast<VertexId>(v))) {
        ids[out++] = static_cast<VertexId>(v);
      }
    }
  }, /*grain=*/1);
  return ids;
}

class VertexSubset {
 public:
  VertexSubset() = default;

  explicit VertexSubset(VertexId universe) : universe_(universe) {}

  // A subset containing every vertex in [0, universe).
  static VertexSubset All(VertexId universe) {
    VertexSubset s(universe);
    s.members_.resize(universe);
    for (VertexId v = 0; v < universe; ++v) {
      s.members_[v] = v;
    }
    return s;
  }

  // Wraps an already-sorted, duplicate-free member vector without the
  // per-element Add calls (FrontierBuilder::Take's bulk path).
  static VertexSubset FromSorted(VertexId universe, std::vector<VertexId> members) {
    VertexSubset s(universe);
    s.members_ = std::move(members);
    return s;
  }

  // A subset defined by its dense bitset alone (FrontierBuilder::TakeDense).
  // `bits` must be sized to the universe and hold exactly `count` set bits.
  // The sparse member list is materialized lazily on first members() access,
  // so a consumer that only reads Dense() — a pull-direction edgeMap chain —
  // never pays the O(universe) pack at all.
  static VertexSubset FromDense(VertexId universe, const AtomicBitset& bits, size_t count) {
    VertexSubset s(universe);
    s.dense_ = bits;
    s.dense_applied_ = 0;
    s.dense_count_ = count;
    s.sparse_valid_ = false;
    return s;
  }

  VertexId universe() const { return universe_; }
  size_t size() const { return sparse_valid_ ? members_.size() : dense_count_; }
  bool Empty() const { return size() == 0; }

  // True while the subset is held in dense-only form (FromDense /
  // TakeDense / TakeAuto's dense pick): Dense() is free, members() would
  // pay the O(universe) pack. Consumers with an index-free walk branch on
  // this to sweep the bitset instead; both walks ascend, so a
  // single-threaded consumer visits the same vertices in the same order
  // either way.
  bool dense_only() const { return !sparse_valid_; }

  const std::vector<VertexId>& members() const {
    MaterializeSparse();
    return members_;
  }

  void Add(VertexId v) {
    MaterializeSparse();
    members_.push_back(v);
  }

  // Sorts and removes duplicate members. Dedup preserves the member *set*,
  // so a fully-built dense view stays valid; a partially-built one is
  // cleared by members (O(|subset|), not O(universe)) since index-based
  // incremental bookkeeping does not survive the reorder. A dense-only
  // subset is canonical already (a bitset cannot hold duplicates).
  void Normalize() {
    if (!sparse_valid_) {
      return;
    }
    const bool dense_complete = dense_applied_ == members_.size() && dense_applied_ > 0;
    std::sort(members_.begin(), members_.end());
    members_.erase(std::unique(members_.begin(), members_.end()), members_.end());
    if (dense_complete) {
      dense_applied_ = members_.size();
    } else if (dense_applied_ > 0) {
      for (const VertexId v : members_) {
        dense_.Clear(v);
      }
      dense_applied_ = 0;
    }
  }

  // Dense membership bitset, memoized: a second call on an unchanged subset
  // is O(1), and members added since the last call are applied
  // incrementally rather than rebuilding from scratch. On a dense-only
  // subset the bitset is the authoritative view and returns immediately.
  const AtomicBitset& Dense() const {
    if (!sparse_valid_) {
      return dense_;
    }
    if (dense_.size() != universe_) {
      dense_.Resize(universe_);
      dense_applied_ = 0;
    }
    for (size_t i = dense_applied_; i < members_.size(); ++i) {
      dense_.Set(members_[i]);
    }
    dense_applied_ = members_.size();
    return dense_;
  }

  // Installs an externally-built bitset as the valid dense view. `bits`
  // must be sized to the universe and hold exactly the member set —
  // FrontierBuilder::Take hands over its claim bitset this way so EdgeMap's
  // dense direction never rebuilds what the builder already has.
  void AdoptDense(AtomicBitset bits) {
    dense_ = std::move(bits);
    dense_applied_ = members_.size();
  }

 private:
  // Packs the dense bitset into the sparse member vector (sorted by
  // construction). The slow path of a dense-only subset; a no-op otherwise.
  void MaterializeSparse() const {
    if (sparse_valid_) {
      return;
    }
    members_.clear();
    members_.reserve(dense_count_);
    for (VertexId v = 0; v < universe_; ++v) {
      if (dense_.Test(v)) {
        members_.push_back(v);
      }
    }
    dense_applied_ = members_.size();
    sparse_valid_ = true;
  }

  VertexId universe_ = 0;
  mutable std::vector<VertexId> members_;
  mutable AtomicBitset dense_;
  mutable size_t dense_applied_ = 0;  // members_[0..dense_applied_) are set in dense_
  // False while the subset is dense-only: members_ is empty, dense_ is
  // authoritative, and dense_count_ carries |subset|.
  mutable bool sparse_valid_ = true;
  size_t dense_count_ = 0;
};

// Process-wide free list of claim bitsets for FrontierBuilder. EdgeMap /
// VertexMap construct one builder per step, and a refinement iteration runs
// many steps over the same universe — without pooling each step pays an
// O(V/8)-byte allocation plus first-touch page faults. Acquire() hands back
// a cleared bitset (resized only when the universe changed); Release()
// clears and parks it. The mutex is uncontended in practice: builders are
// created and destroyed on the calling thread of a step, not inside the
// parallel region.
class FrontierBitsetPool {
 public:
  static FrontierBitsetPool& Instance() {
    static FrontierBitsetPool pool;
    return pool;
  }

  AtomicBitset Acquire(VertexId universe) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        AtomicBitset bits = std::move(free_.back());
        free_.pop_back();
        ++reuses_;
        if (bits.size() != static_cast<size_t>(universe)) {
          bits.Resize(universe);
        }
        return bits;  // cleared on Release, so ready to claim into
      }
      ++allocations_;
    }
    return AtomicBitset(universe);
  }

  void Release(AtomicBitset&& bits) {
    bits.ClearAll();
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() < kMaxPooled) {
      free_.push_back(std::move(bits));
    }
  }

  // Builders served from the free list vs. fresh allocations (cumulative).
  uint64_t reuses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reuses_;
  }
  uint64_t allocations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return allocations_;
  }

 private:
  // Nested EdgeMaps are rare (one per live step); a short list bounds the
  // idle footprint while covering fork-join step pipelines.
  static constexpr size_t kMaxPooled = 8;

  mutable std::mutex mu_;
  std::vector<AtomicBitset> free_;
  uint64_t reuses_ = 0;
  uint64_t allocations_ = 0;
};

// Concurrent frontier builder: threads claim membership through an atomic
// bitset and append to thread-chunk-local vectors merged at the end. The
// claim bitset is pooled (FrontierBitsetPool): acquired on construction,
// cleared and returned on destruction.
class FrontierBuilder {
 public:
  explicit FrontierBuilder(VertexId universe)
      : universe_(universe), claimed_(FrontierBitsetPool::Instance().Acquire(universe)) {}

  ~FrontierBuilder() { FrontierBitsetPool::Instance().Release(std::move(claimed_)); }

  FrontierBuilder(const FrontierBuilder&) = delete;
  FrontierBuilder& operator=(const FrontierBuilder&) = delete;

  // Returns true if this call claimed v (first insertion wins).
  bool Claim(VertexId v) { return claimed_.Set(v); }

  bool Contains(VertexId v) const { return claimed_.Test(v); }

  // Collects all claimed vertices into a subset through the blocked
  // parallel pack (PackIds), so a large universe is swept by the whole
  // arena and the member vector comes out sorted. The claim bitset is
  // copied into the subset as its ready-made dense view (an
  // O(universe/64) word copy, noise next to the scan), so EdgeMap's dense
  // direction never rebuilds it — and the builder stays usable for further
  // claims.
  VertexSubset Take() const {
    VertexSubset subset = VertexSubset::FromSorted(
        universe_, PackIds(universe_, [this](VertexId v) { return claimed_.Test(v); }));
    subset.AdoptDense(claimed_);
    return subset;
  }

  // Dense-only Take: copies the claim bitset as the subset's authoritative
  // view (an O(universe/64) word copy plus popcount) and skips the
  // O(universe) per-bit sparse pack entirely. For consumers that read the
  // result only through Dense() — the next step of a pull-direction edgeMap
  // chain (EdgeMapOptions::dense_result); members() still works on the
  // result, materializing lazily.
  VertexSubset TakeDense() const {
    return VertexSubset::FromDense(universe_, claimed_, claimed_.Count());
  }

  // Auto-picks the result representation from the frontier's density — the
  // vertex-axis analogue of Ligra's push/pull chooser, applied at the
  // producer instead of every call site. A dense frontier (at least
  // universe / kDenseFrontierDenominator members) comes back dense-only: its
  // consumers sweep the whole universe anyway (a pull step, a bit-test
  // walk), so the O(universe) sparse pack is pure overhead. A sparse
  // frontier packs as before — a bit-test sweep would dwarf its
  // O(|frontier|) member walk.
  VertexSubset TakeAuto() const {
    const size_t count = claimed_.Count();
    if (count * kDenseFrontierDenominator >= static_cast<size_t>(universe_)) {
      return VertexSubset::FromDense(universe_, claimed_, count);
    }
    return Take();
  }

 private:
  VertexId universe_;
  AtomicBitset claimed_;
};

}  // namespace graphbolt

#endif  // SRC_ENGINE_VERTEX_SUBSET_H_
