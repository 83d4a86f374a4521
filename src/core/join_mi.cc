#include "src/core/join_mi.h"

#include "src/join/left_join.h"
#include "src/sketch/serialize.h"

namespace joinmi {

Result<JoinMIEstimate> FullJoinMI(const Table& train, const Table& cand,
                                  const JoinMIQuerySpec& spec,
                                  const JoinMIConfig& config) {
  JOINMI_RETURN_NOT_OK(config.Validate());
  JoinAggregateOptions join_options;
  join_options.agg = config.aggregation;
  JOINMI_ASSIGN_OR_RETURN(
      JoinAggregateResult joined,
      LeftJoinAggregate(train, spec.train_key, spec.train_target, cand,
                        spec.cand_key, spec.cand_value, join_options));
  JOINMI_ASSIGN_OR_RETURN(auto feature_col, joined.table->GetColumn("X"));
  JOINMI_ASSIGN_OR_RETURN(auto target_col,
                          joined.table->GetColumn(spec.train_target));
  PairedSample sample;
  sample.x.reserve(joined.table->num_rows());
  sample.y.reserve(joined.table->num_rows());
  for (size_t row = 0; row < joined.table->num_rows(); ++row) {
    if (!feature_col->IsValid(row) || !target_col->IsValid(row)) continue;
    sample.x.push_back(feature_col->GetValue(row));
    sample.y.push_back(target_col->GetValue(row));
  }
  if (sample.size() < config.min_join_size) {
    return Status::OutOfRange("full join produced too few usable rows");
  }
  PairedColumns buffer;
  JOINMI_ASSIGN_OR_RETURN(SampleColumns columns, buffer.Fill(sample));
  JoinMIEstimate estimate;
  estimate.sample_size = sample.size();
  estimate.sketched = false;
  if (config.estimator.has_value()) {
    estimate.estimator = *config.estimator;
  } else {
    JOINMI_ASSIGN_OR_RETURN(estimate.estimator,
                            ChooseEstimatorForSample(columns));
  }
  JOINMI_ASSIGN_OR_RETURN(
      estimate.mi, EstimateMI(estimate.estimator, columns, config.mi_options));
  return estimate;
}

Result<JoinMIEstimate> SketchJoinMI(const Table& train, const Table& cand,
                                    const JoinMIQuerySpec& spec,
                                    const JoinMIConfig& config) {
  JOINMI_ASSIGN_OR_RETURN(
      JoinMIQuery query,
      JoinMIQuery::Create(train, spec.train_key, spec.train_target, config));
  return query.EstimateTable(cand, spec.cand_key, spec.cand_value);
}

Result<JoinMIQuery> JoinMIQuery::Create(const Table& train,
                                        const std::string& train_key,
                                        const std::string& train_target,
                                        const JoinMIConfig& config) {
  JOINMI_RETURN_NOT_OK(config.Validate());
  auto builder =
      MakeSketchBuilder(config.sketch_method, config.sketch_options());
  JOINMI_ASSIGN_OR_RETURN(auto key_col, train.GetColumn(train_key));
  JOINMI_ASSIGN_OR_RETURN(auto target_col, train.GetColumn(train_target));
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch,
                          builder->SketchTrain(*key_col, *target_col));
  JOINMI_ASSIGN_OR_RETURN(TrainKeyRuns runs, TrainKeyRuns::Build(sketch));
  return JoinMIQuery(std::move(sketch), std::move(runs), config);
}

Result<JoinMIQuery> JoinMIQuery::FromTrainSketch(Sketch train_sketch,
                                                 const JoinMIConfig& config) {
  JOINMI_RETURN_NOT_OK(config.Validate());
  if (train_sketch.side != SketchSide::kTrain) {
    return Status::InvalidArgument(
        "FromTrainSketch requires a train-side sketch");
  }
  if (train_sketch.hash_seed != config.hash_seed) {
    return Status::InvalidArgument(
        "train sketch was built with hash seed " +
        std::to_string(train_sketch.hash_seed) + " but the config uses " +
        std::to_string(config.hash_seed));
  }
  JOINMI_ASSIGN_OR_RETURN(TrainKeyRuns runs,
                          TrainKeyRuns::Build(train_sketch));
  return JoinMIQuery(std::move(train_sketch), std::move(runs), config);
}

const std::string& JoinMIQuery::SerializedTrainSketch() const {
  std::call_once(serialized_->once, [this] {
    serialized_->bytes = SerializeSketch(train_sketch_);
    serialized_->digest = wire::Checksum64(serialized_->bytes);
  });
  return serialized_->bytes;
}

uint64_t JoinMIQuery::SerializedTrainSketchDigest() const {
  SerializedTrainSketch();
  return serialized_->digest;
}

Result<Sketch> JoinMIQuery::SketchCandidate(
    const Table& cand, const std::string& cand_key,
    const std::string& cand_value) const {
  auto builder =
      MakeSketchBuilder(config_.sketch_method, config_.sketch_options());
  JOINMI_ASSIGN_OR_RETURN(auto key_col, cand.GetColumn(cand_key));
  JOINMI_ASSIGN_OR_RETURN(auto value_col, cand.GetColumn(cand_value));
  return builder->SketchCandidate(*key_col, *value_col, config_.aggregation);
}

Result<JoinMIEstimate> JoinMIQuery::Estimate(const Sketch& candidate) const {
  JOINMI_ASSIGN_OR_RETURN(
      MergeJoinScore score,
      ScoreCandidateSketch(train_sketch_, train_runs_, candidate,
                           config_.estimator, config_.mi_options,
                           config_.min_join_size));
  if (!score.scored.has_value()) {
    return JoinBelowMinimum(score.join_size, config_.min_join_size);
  }
  JOINMI_ASSIGN_OR_RETURN(SketchMIResult result, std::move(*score.scored));
  return JoinMIEstimate{result.mi, result.estimator, result.join_size,
                        /*sketched=*/true};
}

Result<JoinMIEstimate> JoinMIQuery::EstimateTable(
    const Table& cand, const std::string& cand_key,
    const std::string& cand_value) const {
  JOINMI_ASSIGN_OR_RETURN(Sketch candidate,
                          SketchCandidate(cand, cand_key, cand_value));
  return Estimate(candidate);
}

}  // namespace joinmi
