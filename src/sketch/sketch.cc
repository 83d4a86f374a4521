#include "src/sketch/sketch.h"

#include <algorithm>

#include "src/common/string_util.h"
#include "src/sketch/key_hash.h"

namespace joinmi {

const char* SketchMethodToString(SketchMethod method) {
  switch (method) {
    case SketchMethod::kTupsk:
      return "TUPSK";
    case SketchMethod::kLv2sk:
      return "LV2SK";
    case SketchMethod::kPrisk:
      return "PRISK";
    case SketchMethod::kIndsk:
      return "INDSK";
    case SketchMethod::kCsk:
      return "CSK";
  }
  return "unknown";
}

Result<SketchMethod> SketchMethodFromString(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "tupsk") return SketchMethod::kTupsk;
  if (lower == "lv2sk") return SketchMethod::kLv2sk;
  if (lower == "prisk") return SketchMethod::kPrisk;
  if (lower == "indsk") return SketchMethod::kIndsk;
  if (lower == "csk") return SketchMethod::kCsk;
  return Status::InvalidArgument("unknown sketch method '" + name + "'");
}

KmvHeap::KmvHeap(size_t capacity) : capacity_(capacity) {
  heap_.reserve(capacity + 1);
}

bool KmvHeap::RankLess(const SketchEntry& a, const SketchEntry& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.key_hash != b.key_hash) return a.key_hash < b.key_hash;
  return a.value.Hash() < b.value.Hash();
}

bool KmvHeap::WouldAdmit(double rank) const {
  if (capacity_ == 0) return false;
  if (heap_.size() < capacity_) return true;
  // A rank equal to the maximum's may still win its tie (key_hash, then
  // value hash): Offer's RankLess decides.
  return rank <= heap_.front().rank;
}

void KmvHeap::Offer(SketchEntry entry) {
  if (capacity_ == 0) return;
  if (heap_.size() < capacity_) {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), RankLess);
    return;
  }
  if (!RankLess(entry, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), RankLess);
  heap_.back() = std::move(entry);
  std::push_heap(heap_.begin(), heap_.end(), RankLess);
}

std::vector<SketchEntry> KmvHeap::TakeSorted() {
  std::vector<SketchEntry> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), [](const SketchEntry& a,
                                       const SketchEntry& b) {
    if (a.key_hash != b.key_hash) return a.key_hash < b.key_hash;
    return a.rank < b.rank;
  });
  return out;
}

Result<std::vector<AggregatedKey>> AggregateByKey(const Column& keys,
                                                  const Column& values,
                                                  AggKind agg,
                                                  uint32_t hash_seed) {
  if (keys.size() != values.size()) {
    return Status::InvalidArgument("key/value column length mismatch");
  }
  std::vector<AggregatedKey> result;
  std::vector<AggregatorState> states;
  // Codes come in first-appearance order, so a key's code is its position.
  internal::ScopedKeyCoder positions(keys.size());
  for (size_t row = 0; row < keys.size(); ++row) {
    if (!keys.IsValid(row) || !values.IsValid(row)) continue;
    const uint64_t h = HashKeyAt(keys, row, hash_seed);
    const uint32_t pos = positions->Add(h);
    if (pos == result.size()) {
      result.push_back(AggregatedKey{h, Value::Null(), 0});
      states.emplace_back(agg);
    }
    JOINMI_RETURN_NOT_OK(states[pos].Update(values.GetValue(row)));
  }
  for (size_t i = 0; i < result.size(); ++i) {
    result[i].frequency = positions->counts()[i];
    JOINMI_ASSIGN_OR_RETURN(result[i].value, states[i].Finish());
  }
  return result;
}

}  // namespace joinmi
