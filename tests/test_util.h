// Shared helpers for engine tests: value comparison across scalar and
// array-valued algorithms, differential checks between engines, and a
// self-cleaning temp directory for checkpoint/serialization tests.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include "src/graph/edge_list.h"
#include "src/graph/types.h"

namespace graphbolt {

// A unique directory under the system temp root, removed (recursively) on
// destruction. Checkpoint and WAL tests write real files through it.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix = "graphbolt_test") {
    std::string pattern =
        (std::filesystem::temp_directory_path() / (prefix + ".XXXXXX")).string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      std::filesystem::create_directories(pattern);  // loud fallback path
    }
    path_ = pattern;
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

inline double ValueGap(double a, double b) { return std::fabs(a - b); }

template <size_t N>
double ValueGap(const std::array<double, N>& a, const std::array<double, N>& b) {
  double gap = 0.0;
  for (size_t i = 0; i < N; ++i) {
    gap = std::max(gap, std::fabs(a[i] - b[i]));
  }
  return gap;
}

// Maximum elementwise gap between two value arrays.
template <typename Value>
double MaxGap(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) {
    return 1e300;
  }
  double gap = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    gap = std::max(gap, ValueGap(a[i], b[i]));
  }
  return gap;
}

// Bitwise equality over value arrays, for contracts stated in bits rather
// than tolerances (fast-path safety, recovery replay, refinement routes that
// must agree exactly).
template <typename Value>
bool SameValueBits(const std::vector<Value>& a, const std::vector<Value>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Value)) == 0);
}

// Seed selection for the randomized (`fuzz`-labeled) test tier, shared by
// every fuzz target so CI shards them uniformly. Three forms, in
// precedence order:
//   GRAPHBOLT_FUZZ_SEEDS="101,102,103"          explicit list
//   GRAPHBOLT_FUZZ_SEED_BASE=N [.._COUNT=K]     the range [N, N+K)
//   (neither set)                               the default seeds 1..8
// A sharded CI job gives each shard its own BASE; a reproduction run pins
// the single failing seed with SEEDS. COUNT defaults to 8.
inline std::vector<uint64_t> FuzzSeeds() {
  std::vector<uint64_t> seeds;
  if (const char* list = std::getenv("GRAPHBOLT_FUZZ_SEEDS")) {
    std::string token;
    for (const char* p = list;; ++p) {
      if (*p == ',' || *p == '\0') {
        if (!token.empty()) {
          seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
          token.clear();
        }
        if (*p == '\0') {
          break;
        }
      } else {
        token.push_back(*p);
      }
    }
    if (!seeds.empty()) {
      return seeds;
    }
  }
  uint64_t base = 1;
  uint64_t count = 8;
  if (const char* b = std::getenv("GRAPHBOLT_FUZZ_SEED_BASE")) {
    base = std::strtoull(b, nullptr, 10);
  }
  if (const char* c = std::getenv("GRAPHBOLT_FUZZ_SEED_COUNT")) {
    count = std::strtoull(c, nullptr, 10);
  }
  for (uint64_t s = 0; s < count; ++s) {
    seeds.push_back(base + s);
  }
  return seeds;
}

// The 5-vertex graph of Figure 2a in the paper.
inline EdgeList PaperFigure2aGraph() {
  EdgeList list;
  list.set_num_vertices(5);
  list.Add(0, 1);
  list.Add(1, 2);
  list.Add(2, 0);
  list.Add(2, 1);
  list.Add(3, 2);
  list.Add(3, 4);
  list.Add(4, 3);
  return list;
}

// A backend-independent copy of a dependency store (DependencyStore or
// CompactDependencyStore): the level counts, every tracked level's
// aggregates and every level's changed bits. ImageDiff compares them
// bitwise.
template <typename Aggregate>
struct StoreImage {
  uint32_t tracked = 0;
  uint32_t total = 0;
  std::vector<std::vector<Aggregate>> aggregates;  // [level - 1][v]
  std::vector<std::vector<bool>> changed;          // [level - 1][v]

  template <typename Store>
  static StoreImage Of(const Store& store) {
    StoreImage image;
    image.tracked = store.tracked_levels();
    image.total = store.total_levels();
    const VertexId n = store.num_vertices();
    for (uint32_t level = 1; level <= image.tracked; ++level) {
      auto& row = image.aggregates.emplace_back(n);
      for (VertexId v = 0; v < n; ++v) {
        row[v] = store.At(level, v);
      }
    }
    for (uint32_t level = 1; level <= image.total; ++level) {
      auto& row = image.changed.emplace_back(n);
      for (VertexId v = 0; v < n; ++v) {
        row[v] = store.ChangedAt(level).Test(v);
      }
    }
    return image;
  }
};

// Empty when the two images are bitwise equal; otherwise names the first
// difference.
template <typename Aggregate>
std::string ImageDiff(const StoreImage<Aggregate>& a, const StoreImage<Aggregate>& b) {
  if (a.tracked != b.tracked || a.total != b.total) {
    return "levels tracked/total " + std::to_string(a.tracked) + "/" + std::to_string(a.total) +
           " vs " + std::to_string(b.tracked) + "/" + std::to_string(b.total);
  }
  for (size_t l = 0; l < a.aggregates.size(); ++l) {
    if (a.aggregates[l].size() != b.aggregates[l].size()) {
      return "vertex count differs at level " + std::to_string(l + 1);
    }
    for (size_t v = 0; v < a.aggregates[l].size(); ++v) {
      if (std::memcmp(&a.aggregates[l][v], &b.aggregates[l][v], sizeof(Aggregate)) != 0) {
        return "aggregate of vertex " + std::to_string(v) + " at level " + std::to_string(l + 1);
      }
    }
  }
  for (size_t l = 0; l < a.changed.size(); ++l) {
    if (a.changed[l] != b.changed[l]) {
      return "changed bits at level " + std::to_string(l + 1);
    }
  }
  return "";
}

template <typename Store>
auto ImageOf(const Store& store) {
  return StoreImage<std::decay_t<decltype(store.At(1, 0))>>::Of(store);
}

// Bitwise store comparison across backends; empty when equal.
template <typename StoreA, typename StoreB>
std::string StoreDiff(const StoreA& a, const StoreB& b) {
  return ImageDiff(ImageOf(a), ImageOf(b));
}

}  // namespace graphbolt

#endif  // TESTS_TEST_UTIL_H_
