#include "src/core/config.h"

#include "src/common/string_util.h"
#include "src/sketch/serialize.h"

namespace joinmi {

Status JoinMIConfig::Validate() const {
  if (sketch_capacity == 0) {
    return Status::InvalidArgument("sketch_capacity must be positive");
  }
  if (mi_options.k < 1) {
    return Status::InvalidArgument("estimator k must be >= 1");
  }
  if (mi_options.laplace_alpha < 0.0) {
    return Status::InvalidArgument("laplace_alpha must be >= 0");
  }
  if (mi_options.perturb_sigma < 0.0) {
    return Status::InvalidArgument("perturb_sigma must be >= 0");
  }
  return Status::OK();
}

Status CheckQueryConfig(const JoinMIConfig& query,
                        const JoinMIConfig& served) {
  JoinMIConfig comparable = served;
  comparable.min_join_size = query.min_join_size;
  if (query == comparable) return Status::OK();
  return Status::InvalidArgument(
      "query config (" + query.ToString() + ") disagrees with the served " +
      served.ToString() +
      " beyond min_join_size — it would be answered under the wrong "
      "configuration");
}

std::string JoinMIConfig::ToString() const {
  return StrFormat(
      "JoinMIConfig{sketch=%s, n=%zu, seed=%u, agg=%s, estimator=%s, "
      "k=%d, min_join_size=%zu}",
      SketchMethodToString(sketch_method), sketch_capacity, hash_seed,
      AggKindToString(aggregation),
      estimator.has_value() ? MIEstimatorKindToString(*estimator) : "auto",
      mi_options.k, min_join_size);
}

void AppendJoinMIConfig(std::string* out, const JoinMIConfig& config) {
  wire::AppendPod<uint8_t>(out, static_cast<uint8_t>(config.sketch_method));
  wire::AppendPod<uint64_t>(out, config.sketch_capacity);
  wire::AppendPod<uint32_t>(out, config.hash_seed);
  wire::AppendPod<uint64_t>(out, config.sampling_seed);
  wire::AppendPod<uint8_t>(out, static_cast<uint8_t>(config.aggregation));
  wire::AppendPod<uint8_t>(out, config.estimator.has_value() ? 1 : 0);
  wire::AppendPod<uint8_t>(
      out, config.estimator.has_value()
               ? static_cast<uint8_t>(*config.estimator)
               : 0);
  wire::AppendPod<int32_t>(out, config.mi_options.k);
  wire::AppendPod<double>(out, config.mi_options.laplace_alpha);
  wire::AppendPod<double>(out, config.mi_options.perturb_sigma);
  wire::AppendPod<uint64_t>(out, config.mi_options.perturb_seed);
  wire::AppendPod<uint64_t>(out, config.min_join_size);
}

Result<JoinMIConfig> ReadJoinMIConfig(wire::Reader* reader) {
  JoinMIConfig config;
  uint8_t method = 0, aggregation = 0, has_estimator = 0, estimator = 0;
  uint64_t capacity = 0, min_join_size = 0;
  JOINMI_RETURN_NOT_OK(reader->Read(&method));
  JOINMI_RETURN_NOT_OK(reader->Read(&capacity));
  JOINMI_RETURN_NOT_OK(reader->Read(&config.hash_seed));
  JOINMI_RETURN_NOT_OK(reader->Read(&config.sampling_seed));
  JOINMI_RETURN_NOT_OK(reader->Read(&aggregation));
  JOINMI_RETURN_NOT_OK(reader->Read(&has_estimator));
  JOINMI_RETURN_NOT_OK(reader->Read(&estimator));
  JOINMI_RETURN_NOT_OK(reader->Read(&config.mi_options.k));
  JOINMI_RETURN_NOT_OK(reader->Read(&config.mi_options.laplace_alpha));
  JOINMI_RETURN_NOT_OK(reader->Read(&config.mi_options.perturb_sigma));
  JOINMI_RETURN_NOT_OK(reader->Read(&config.mi_options.perturb_seed));
  JOINMI_RETURN_NOT_OK(reader->Read(&min_join_size));
  if (method > static_cast<uint8_t>(SketchMethod::kCsk)) {
    return Status::IOError("unknown sketch method tag in serialized config");
  }
  if (aggregation > static_cast<uint8_t>(AggKind::kMedian)) {
    return Status::IOError("unknown aggregation tag in serialized config");
  }
  if (has_estimator > 1 ||
      estimator > static_cast<uint8_t>(MIEstimatorKind::kDCKSG)) {
    return Status::IOError("unknown estimator tag in serialized config");
  }
  config.sketch_method = static_cast<SketchMethod>(method);
  config.sketch_capacity = capacity;
  config.aggregation = static_cast<AggKind>(aggregation);
  if (has_estimator == 1) {
    config.estimator = static_cast<MIEstimatorKind>(estimator);
  }
  config.min_join_size = min_join_size;
  JOINMI_RETURN_NOT_OK(config.Validate());
  return config;
}

}  // namespace joinmi
