// Library-wide configuration for MI-over-join queries: which sketch, what
// capacity, which estimator policy, and estimator knobs. One validated
// struct flows from the public API down to the sketch and estimator layers.

#ifndef JOINMI_CORE_CONFIG_H_
#define JOINMI_CORE_CONFIG_H_

#include <optional>
#include <string>

#include "src/common/status.h"
#include "src/join/aggregators.h"
#include "src/mi/estimator.h"
#include "src/sketch/builder.h"

namespace joinmi {

namespace wire {
class Reader;
}  // namespace wire

/// \brief Configuration for JoinMIQuery.
struct JoinMIConfig {
  /// Sketching method (TUPSK is the paper's recommendation).
  SketchMethod sketch_method = SketchMethod::kTupsk;
  /// Sketch capacity n — the single size parameter.
  size_t sketch_capacity = 256;
  /// Shared hash seed; all sketches that should join must agree.
  uint32_t hash_seed = 0;
  /// Seed for non-coordinated sampling randomness.
  uint64_t sampling_seed = 0x5EEDBA5EULL;
  /// Featurization function for candidate tables.
  AggKind aggregation = AggKind::kAvg;
  /// Estimator override; unset means auto-select by data types.
  std::optional<MIEstimatorKind> estimator;
  /// Estimator options (k, smoothing, perturbation).
  MIOptions mi_options;
  /// Minimum sketch-join size for a meaningful estimate (the paper uses
  /// 100 on real data).
  size_t min_join_size = 1;

  /// \brief Returns the SketchOptions slice of this config.
  SketchOptions sketch_options() const {
    return SketchOptions{sketch_capacity, hash_seed, sampling_seed};
  }

  /// \brief Validates ranges (capacity > 0, k >= 1, ...).
  Status Validate() const;

  std::string ToString() const;

  /// \brief Field-wise equality. Two configs compare equal iff sketches and
  /// estimates produced under one are interchangeable with the other's —
  /// the agreement every shard of a partitioned index must satisfy.
  bool operator==(const JoinMIConfig& other) const {
    return sketch_method == other.sketch_method &&
           sketch_capacity == other.sketch_capacity &&
           hash_seed == other.hash_seed &&
           sampling_seed == other.sampling_seed &&
           aggregation == other.aggregation &&
           estimator == other.estimator &&
           mi_options.k == other.mi_options.k &&
           mi_options.laplace_alpha == other.mi_options.laplace_alpha &&
           mi_options.perturb_sigma == other.mi_options.perturb_sigma &&
           mi_options.perturb_seed == other.mi_options.perturb_seed &&
           min_join_size == other.min_join_size;
  }
  bool operator!=(const JoinMIConfig& other) const {
    return !(*this == other);
  }
};

/// \brief Checks that a query built under `query` may be answered by an
/// index or shard configured with `served`: every field but min_join_size
/// must match, since those change sketches or estimates, while the floor
/// travels with each request. Returns InvalidArgument otherwise.
Status CheckQueryConfig(const JoinMIConfig& query, const JoinMIConfig& served);

/// \brief Size in bytes of the config wire layout below. The layout is
/// fixed-width, so formats with fixed-size headers (e.g. the "JMPS" paged
/// shard file) can embed a config block at a known offset.
constexpr size_t kJoinMIConfigWireSize = 60;

/// \brief Appends the config in its shared binary wire layout — the one
/// layout used by the "JMIX" index format, the "JMIM" shard manifest,
/// and the "JMRP" serving handshake, so a config written by any of them is
/// readable by all.
void AppendJoinMIConfig(std::string* out, const JoinMIConfig& config);

/// \brief Parses a config from the shared wire layout; validates enum tags
/// and ranges (Validate()), so corrupted buffers fail cleanly.
Result<JoinMIConfig> ReadJoinMIConfig(wire::Reader* reader);

}  // namespace joinmi

#endif  // JOINMI_CORE_CONFIG_H_
