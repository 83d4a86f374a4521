// Entry-level access to a sketch for the format-independent golden tests:
// each entry as its (key hash, rank bits, value word) — a numeric value's
// word is its double's bits, any other value's its Value::Hash() — and a
// way to append a hand-built entry. The goldens are written against these
// words, not against a sketch layout or its serialized bytes.

#ifndef JOINMI_TESTS_SKETCH_ROWS_H_
#define JOINMI_TESTS_SKETCH_ROWS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/sketch/sketch.h"

namespace joinmi {

struct EntryWords {
  uint64_t key_hash;
  uint64_t rank_bits;
  uint64_t value_word;
};

inline std::vector<EntryWords> SketchEntryWords(const Sketch& sketch) {
  std::vector<EntryWords> out;
  for (size_t i = 0; i < sketch.size(); ++i) {
    EntryWords words{sketch.key_hashes[i], 0, sketch.value_words[i]};
    std::memcpy(&words.rank_bits, &sketch.ranks[i], sizeof(double));
    out.push_back(words);
  }
  return out;
}

inline void AppendSketchEntry(Sketch* sketch, uint64_t key_hash, double rank,
                              const Value& value) {
  sketch->Append(key_hash, rank, value);
}

}  // namespace joinmi

#endif  // JOINMI_TESTS_SKETCH_ROWS_H_
