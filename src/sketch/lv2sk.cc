// LV2SK: two-level sampling (Section IV-A). Level 1 performs coordinated
// KMV sampling over distinct keys (minimum h_u(h(k))); level 2 caps the rows
// kept per selected key at n_k = max(1, floor(n * N_k / N)) via uniform
// subsampling without replacement. The total size is bounded by 2n. The
// per-tuple selection probability 1 / (m_K * max(1, floor(n N_k / N)))
// depends on the key-frequency distribution — the bias source TUPSK fixes.

#include "src/sketch/two_level.h"

#include <algorithm>
#include <unordered_map>

#include "src/common/random.h"
#include "src/sketch/key_hash.h"

namespace joinmi {
namespace internal {

namespace {
struct KeyedRows {
  uint64_t key_hash = 0;
  double key_rank = 0.0;  // level-1 rank
  std::vector<size_t> rows;
};
}  // namespace

Result<Sketch> BuildTwoLevelTrain(const SketchBuilder& builder,
                                  const Column& keys, const Column& values,
                                  bool priority_weighted, Sketch sketch) {
  const SketchOptions& options = builder.options();
  // Group usable rows by key.
  std::vector<KeyedRows> groups;
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(keys.size());
  size_t total_rows = 0;
  WithKeyHasher(keys, options.hash_seed, [&](auto hash_at) {
    for (size_t row = 0; row < keys.size(); ++row) {
      if (!keys.IsValid(row) || !values.IsValid(row)) continue;
      const uint64_t h = hash_at(row);
      auto [it, inserted] = index.emplace(h, groups.size());
      if (inserted) {
        groups.push_back(KeyedRows{h, KeyUnitHash(h), {}});
      }
      groups[it->second].rows.push_back(row);
      ++total_rows;
    }
  });
  if (priority_weighted) {
    // Priority sampling: rank = u / w with weight w = key frequency, so
    // heavy keys are preferentially retained at level 1.
    for (KeyedRows& group : groups) {
      group.key_rank /= static_cast<double>(group.rows.size());
    }
  }
  // Level 1: the n keys with minimum rank.
  const size_t n = options.capacity;
  const size_t selected = std::min(n, groups.size());
  std::partial_sort(groups.begin(),
                    groups.begin() + static_cast<ptrdiff_t>(selected),
                    groups.end(), [](const KeyedRows& a, const KeyedRows& b) {
                      if (a.key_rank != b.key_rank)
                        return a.key_rank < b.key_rank;
                      return a.key_hash < b.key_hash;
                    });
  // Level 2: per-key cap n_k = max(1, floor(n * N_k / N)), sampled uniformly
  // without replacement (Fisher–Yates prefix), deterministic per seed/key.
  Rng base_rng(options.sampling_seed);
  struct Kept {
    uint64_t key_hash;
    double rank;
    size_t row;
  };
  std::vector<Kept> kept;
  for (size_t g = 0; g < selected; ++g) {
    KeyedRows& group = groups[g];
    const size_t freq = group.rows.size();
    const size_t cap = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(n) *
                               static_cast<double>(freq) /
                               static_cast<double>(total_rows)));
    const size_t take = std::min(cap, freq);
    Rng rng(base_rng.Next64() ^ group.key_hash);
    for (size_t i = 0; i < take; ++i) {
      const size_t j = i + static_cast<size_t>(rng.NextBounded(freq - i));
      std::swap(group.rows[i], group.rows[j]);
      kept.push_back(Kept{group.key_hash, group.key_rank, group.rows[i]});
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Kept& a, const Kept& b) {
    if (a.key_hash != b.key_hash) return a.key_hash < b.key_hash;
    return a.rank < b.rank;
  });
  sketch.Reserve(kept.size());
  for (const Kept& entry : kept) {
    sketch.Append(entry.key_hash, entry.rank, values.GetValue(entry.row));
  }
  return sketch;
}

}  // namespace internal

Result<Sketch> Lv2skBuilder::SketchTrain(const Column& keys,
                                         const Column& values) const {
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch,
                          InitSketch(keys, values, SketchSide::kTrain));
  return internal::BuildTwoLevelTrain(*this, keys, values,
                                      /*priority_weighted=*/false,
                                      std::move(sketch));
}

}  // namespace joinmi
