// Public high-level API: estimate the mutual information between a base
// table's target attribute and a candidate table's feature attribute as it
// would appear after a left-outer join-aggregation — either exactly (full
// materialized join) or approximately (join-free, via sketches).
//
// This is the problem statement of Section III-A, packaged the way a data
// discovery system would consume it.

#ifndef JOINMI_CORE_JOIN_MI_H_
#define JOINMI_CORE_JOIN_MI_H_

#include <memory>
#include <mutex>
#include <string>

#include "src/core/config.h"
#include "src/sketch/sketch_join.h"
#include "src/table/table.h"

namespace joinmi {

/// \brief Column bindings for one MI-over-join query.
struct JoinMIQuerySpec {
  std::string train_key;     ///< K_Y: join key in the base table
  std::string train_target;  ///< Y: target attribute in the base table
  std::string cand_key;      ///< K_X/K_Z: join key in the candidate table
  std::string cand_value;    ///< Z: attribute to featurize into X
};

/// \brief Outcome of one query evaluation.
struct JoinMIEstimate {
  double mi = 0.0;
  MIEstimatorKind estimator = MIEstimatorKind::kMLE;
  /// Samples the estimate was computed on (full-join rows or sketch-join
  /// pairs).
  size_t sample_size = 0;
  /// True if computed via sketches; false for the materialized join.
  bool sketched = false;
};

/// \brief One-shot exact evaluation: materializes the join-aggregation
/// query and runs the estimator on all joined rows.
Result<JoinMIEstimate> FullJoinMI(const Table& train, const Table& cand,
                                  const JoinMIQuerySpec& spec,
                                  const JoinMIConfig& config = {});

/// \brief One-shot sketch evaluation: builds both sketches, joins them, and
/// estimates MI on the recovered sample — never materializing the join.
Result<JoinMIEstimate> SketchJoinMI(const Table& train, const Table& cand,
                                    const JoinMIQuerySpec& spec,
                                    const JoinMIConfig& config = {});

/// \brief Reusable query object for the discovery setting: sketch the base
/// table once, then probe many candidate tables cheaply.
class JoinMIQuery {
 public:
  /// \brief Sketches the base table's (key, target) pair.
  static Result<JoinMIQuery> Create(const Table& train,
                                    const std::string& train_key,
                                    const std::string& train_target,
                                    const JoinMIConfig& config = {});

  /// \brief Reconstructs a query from an already-built train sketch — the
  /// serving path, where the sketch arrives over the wire and the base
  /// table's rows never leave the client. Rejects candidate-side sketches
  /// and sketches whose hash seed disagrees with `config`, so a server
  /// cannot silently answer from an incompatible sketch, and sketches
  /// whose entries are not sorted by key_hash. Estimates match a
  /// Create()-built query over the same sketch exactly.
  static Result<JoinMIQuery> FromTrainSketch(Sketch train_sketch,
                                             const JoinMIConfig& config);

  /// \brief Builds a candidate sketch with this query's configuration so it
  /// can be stored in an offline index.
  Result<Sketch> SketchCandidate(const Table& cand,
                                 const std::string& cand_key,
                                 const std::string& cand_value) const;

  /// \brief Estimates MI against a pre-built candidate sketch. Checks sides,
  /// seeds and the candidate's key order (strictly ascending, no
  /// duplicates), then scores through the same scoring kernel SketchIndex
  /// and paged shards use.
  Result<JoinMIEstimate> Estimate(const Sketch& candidate) const;

  /// \brief Convenience: sketch + estimate in one call.
  Result<JoinMIEstimate> EstimateTable(const Table& cand,
                                       const std::string& cand_key,
                                       const std::string& cand_value) const;

  const Sketch& train_sketch() const { return train_sketch_; }
  /// \brief The train sketch's equal-key runs, built once at construction
  /// and shared by every candidate the query is scored against.
  const TrainKeyRuns& train_runs() const { return train_runs_; }
  const JoinMIConfig& config() const { return config_; }

  /// \brief The train sketch's wire bytes (serialize.h format), built
  /// lazily on first use and cached — an N-shard RPC fan-out ships the
  /// same bytes to every shard, so serialization must not scale with N.
  /// Thread-safe; copies of the query share the cache.
  const std::string& SerializedTrainSketch() const;
  /// \brief wire::Checksum64 of SerializedTrainSketch(), cached with it:
  /// the digest that keys the router's result cache and the shard servers'
  /// sketch caches, so a cache hit does not rehash the sketch bytes.
  uint64_t SerializedTrainSketchDigest() const;

 private:
  JoinMIQuery(Sketch train_sketch, TrainKeyRuns train_runs,
              JoinMIConfig config)
      : train_sketch_(std::move(train_sketch)),
        train_runs_(std::move(train_runs)),
        config_(std::move(config)) {}

  Sketch train_sketch_;
  TrainKeyRuns train_runs_;
  JoinMIConfig config_;
  // Heap-held so the query stays movable (std::once_flag is not).
  struct SerializedCache {
    std::once_flag once;
    std::string bytes;
    uint64_t digest = 0;
  };
  std::shared_ptr<SerializedCache> serialized_ =
      std::make_shared<SerializedCache>();
};

}  // namespace joinmi

#endif  // JOINMI_CORE_JOIN_MI_H_
