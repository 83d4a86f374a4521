// Per-layer metrics of a traced run. Each one times calls into one
// layer's public functions from the outside, after the load phase, on the
// workload's own candidates and queries; every timed call is also a span.

#ifndef JOINMI_DISCOVERY_BENCH_LAYERS_H_
#define JOINMI_DISCOVERY_BENCH_LAYERS_H_

#include <string>
#include <vector>

#include "harness.h"
#include "workload.h"

namespace joinmi {
namespace dbench {

struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  const WorkloadData* data = nullptr;
  Deployment* deployment = nullptr;
  /// The unsharded index over every table, in global order.
  const SketchIndex* full = nullptr;
  const Reference* reference = nullptr;
  /// The traced load phase.
  const PhaseResult* phase = nullptr;
  /// Every set-up of the run.
  const std::vector<SetupTimes>* setups = nullptr;
  Tracer* tracer = nullptr;
  /// Where probes may write files.
  std::string work_dir;
};

/// \brief Runs every layer probe and appends the per-layer metrics.
Status ProbeLayers(const LayerInputs& in, std::vector<Metric>* metrics);

}  // namespace dbench
}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_BENCH_LAYERS_H_
