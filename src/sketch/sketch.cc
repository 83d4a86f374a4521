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

KmvSelection::KmvSelection(size_t capacity, ValueAt value_at,
                           size_t num_offers)
    : capacity_(capacity),
      value_at_(std::move(value_at)),
      bound_(num_offers > 4 * capacity
                 ? 1.5 * static_cast<double>(capacity) /
                       static_cast<double>(num_offers)
                 : kNoBound) {
  items_.reserve(2 * capacity);
}

uint64_t KmvSelection::ValueHash(const Item& item) const {
  return value_at_(item.index).Hash();
}

bool KmvSelection::RankLess(const Item& a, const Item& b) const {
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.key_hash != b.key_hash) return a.key_hash < b.key_hash;
  return ValueHash(a) < ValueHash(b);
}

void KmvSelection::KeepLeast() {
  if (items_.size() <= capacity_) return;
  std::nth_element(
      items_.begin(), items_.begin() + static_cast<ptrdiff_t>(capacity_ - 1),
      items_.end(),
      [this](const Item& a, const Item& b) { return RankLess(a, b); });
  items_.resize(capacity_);
  bound_ = items_.back().rank;
}

std::vector<SketchEntry> KmvSelection::TakeSorted() {
  KeepLeast();
  std::sort(items_.begin(), items_.end(), [this](const Item& a,
                                                 const Item& b) {
    if (a.key_hash != b.key_hash) return a.key_hash < b.key_hash;
    if (a.rank != b.rank) return a.rank < b.rank;
    return ValueHash(a) < ValueHash(b);
  });
  std::vector<SketchEntry> out;
  out.reserve(items_.size());
  for (const Item& item : items_) {
    out.push_back(SketchEntry{item.key_hash, item.rank,
                              value_at_(item.index)});
  }
  items_.clear();
  bound_ = kNoBound;
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
  JOINMI_RETURN_NOT_OK(
      WithKeyHasher(keys, hash_seed, [&](auto hash_at) -> Status {
        for (size_t row = 0; row < keys.size(); ++row) {
          if (!keys.IsValid(row) || !values.IsValid(row)) continue;
          const uint64_t h = hash_at(row);
          const uint32_t pos = positions->Add(h);
          if (pos == result.size()) {
            result.push_back(AggregatedKey{h, Value::Null(), 0});
            states.emplace_back(agg);
          }
          JOINMI_RETURN_NOT_OK(states[pos].Update(values.GetValue(row)));
        }
        return Status::OK();
      }));
  for (size_t i = 0; i < result.size(); ++i) {
    result[i].frequency = positions->counts()[i];
    JOINMI_ASSIGN_OR_RETURN(result[i].value, states[i].Finish());
  }
  return result;
}

}  // namespace joinmi
