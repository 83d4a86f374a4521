#include "src/mi/histogram.h"

#include <algorithm>

namespace joinmi {

uint32_t ValueCoder::Encode(const Value& v) {
  const auto [it, inserted] = codes_.emplace(v.Hash(), next_code_);
  if (inserted) ++next_code_;
  return it->second;
}

int64_t ValueCoder::Lookup(const Value& v) const {
  const auto it = codes_.find(v.Hash());
  return it == codes_.end() ? -1 : static_cast<int64_t>(it->second);
}

void KeyCoder::Reset(size_t expected_keys, size_t max_initial_keys) {
  // A power of two at least twice the expected keys keeps probes short;
  // only that prefix of a table grown by an earlier, larger sample is
  // used, so small samples stay cache-resident.
  expected_keys = std::min(expected_keys, max_initial_keys);
  size_t capacity = 16;
  int bits = 4;
  while (capacity < 2 * expected_keys) {
    capacity *= 2;
    ++bits;
  }
  UseSlots(capacity, bits);
  next_code_ = 0;
}

void KeyCoder::UseSlots(size_t capacity, int bits) {
  if (slots_.size() < capacity) {
    slots_.assign(capacity, Slot{0, 0, 0});
    stamp_ = 0;
  }
  if (counts_.size() < capacity / 2) {
    keys_.resize(capacity / 2);
    counts_.resize(capacity / 2);
  }
  if (++stamp_ == 0) {
    for (Slot& slot : slots_) slot.stamp = 0;
    stamp_ = 1;
  }
  mask_ = capacity - 1;
  shift_ = 64 - bits;
  max_codes_ = static_cast<uint32_t>(capacity / 2);
}

void KeyCoder::Grow() {
  UseSlots(2 * (mask_ + 1), 64 - shift_ + 1);
  for (uint32_t code = 0; code < next_code_; ++code) {
    size_t slot = Home(keys_[code]);
    while (slots_[slot].stamp == stamp_) slot = (slot + 1) & mask_;
    slots_[slot] = Slot{keys_[code], stamp_, code};
  }
}

std::vector<uint32_t> EncodeValues(const std::vector<Value>& values,
                                   ValueCoder* coder) {
  std::vector<uint32_t> codes;
  codes.reserve(values.size());
  for (const Value& v : values) codes.push_back(coder->Encode(v));
  return codes;
}

Histogram BuildHistogram(const std::vector<uint32_t>& codes) {
  Histogram hist;
  for (uint32_t code : codes) {
    if (code >= hist.counts.size()) hist.counts.resize(code + 1, 0);
    ++hist.counts[code];
    ++hist.total;
  }
  return hist;
}

}  // namespace joinmi
