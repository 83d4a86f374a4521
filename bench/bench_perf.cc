// E8 — Section V-D performance evaluation (google-benchmark).
//
// Paper's exemplar numbers at n = 256: growing the table from N = 5k to
// N = 20k raises full-join time from 0.35ms to 2.1ms while the sketch join
// stays 0.03-0.18ms; MI estimation on the full join grows 2.2ms -> 10.7ms
// while sketch-sample MI stays ~0.1ms. The shape to reproduce: full-path
// costs scale with N, sketch-path costs are ~constant (bounded by n).
//
// Also covered: sketch construction throughput per method (the offline
// cost) and the KMV-heap vs full-sort build ablation.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/bench_util.h"
#include "src/join/left_join.h"
#include "src/sketch/key_hash.h"

namespace joinmi {
namespace bench {
namespace {

constexpr size_t kSketchSize = 256;

SyntheticDataset MakeDataset(size_t rows) {
  SyntheticSpec spec;
  spec.distribution = SyntheticDistribution::kTrinomial;
  spec.m = 64;
  spec.num_rows = rows;
  spec.key_scheme = KeyScheme::kKeyInd;
  spec.seed = 424242;
  return *GenerateSyntheticDataset(spec);
}

// ------------------------------------------------------------ Join paths --

void BM_FullJoin(benchmark::State& state) {
  const SyntheticDataset dataset = MakeDataset(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto joined = LeftJoinAggregate(*dataset.tables.train, kKeyColumn,
                                    kTargetColumn, *dataset.tables.cand,
                                    kKeyColumn, kFeatureColumn,
                                    {AggKind::kFirst, true, "X"});
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullJoin)->Arg(5000)->Arg(10000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_SketchJoin(benchmark::State& state) {
  const SyntheticDataset dataset = MakeDataset(static_cast<size_t>(state.range(0)));
  SketchOptions options;
  options.capacity = kSketchSize;
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, options);
  const auto& train = dataset.tables.train;
  const auto& cand = dataset.tables.cand;
  auto s_train = *builder->SketchTrain(*(*train->GetColumn(kKeyColumn)),
                                       *(*train->GetColumn(kTargetColumn)));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn(kKeyColumn)),
                                          *(*cand->GetColumn(kFeatureColumn)),
                                          AggKind::kFirst);
  for (auto _ : state) {
    auto joined = JoinSketches(s_train, s_cand);
    benchmark::DoNotOptimize(joined);
  }
}
BENCHMARK(BM_SketchJoin)->Arg(5000)->Arg(10000)->Arg(20000)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------ Estimation paths --

void BM_MIFullJoin(benchmark::State& state) {
  const SyntheticDataset dataset = MakeDataset(static_cast<size_t>(state.range(0)));
  PairedSample sample;
  sample.x = dataset.xs;
  sample.y = dataset.ys;
  for (auto _ : state) {
    auto mi = EstimateMI(MIEstimatorKind::kMLE, sample);
    benchmark::DoNotOptimize(mi);
  }
}
BENCHMARK(BM_MIFullJoin)->Arg(5000)->Arg(10000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_MISketchSample(benchmark::State& state) {
  const SyntheticDataset dataset = MakeDataset(static_cast<size_t>(state.range(0)));
  SketchOptions options;
  options.capacity = kSketchSize;
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, options);
  const auto& train = dataset.tables.train;
  const auto& cand = dataset.tables.cand;
  auto s_train = *builder->SketchTrain(*(*train->GetColumn(kKeyColumn)),
                                       *(*train->GetColumn(kTargetColumn)));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn(kKeyColumn)),
                                          *(*cand->GetColumn(kFeatureColumn)),
                                          AggKind::kFirst);
  auto joined = *JoinSketches(s_train, s_cand);
  for (auto _ : state) {
    auto mi = EstimateMI(MIEstimatorKind::kMLE, joined.sample.columns());
    benchmark::DoNotOptimize(mi);
  }
}
BENCHMARK(BM_MISketchSample)->Arg(5000)->Arg(10000)->Arg(20000)->Unit(benchmark::kMillisecond);

// KSG-family estimation cost on the sketch sample (kd-tree path).
void BM_MIKsgSketchSample(benchmark::State& state) {
  const SyntheticDataset dataset = MakeDataset(20000);
  SketchOptions options;
  options.capacity = static_cast<size_t>(state.range(0));
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, options);
  const auto& train = dataset.tables.train;
  const auto& cand = dataset.tables.cand;
  auto s_train = *builder->SketchTrain(*(*train->GetColumn(kKeyColumn)),
                                       *(*train->GetColumn(kTargetColumn)));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn(kKeyColumn)),
                                          *(*cand->GetColumn(kFeatureColumn)),
                                          AggKind::kFirst);
  auto joined = *JoinSketches(s_train, s_cand);
  for (auto _ : state) {
    auto mi = EstimateMI(MIEstimatorKind::kMixedKSG, joined.sample.columns());
    benchmark::DoNotOptimize(mi);
  }
}
BENCHMARK(BM_MIKsgSketchSample)->Arg(256)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- Sketch building --

void BM_SketchBuildTrain(benchmark::State& state) {
  const SyntheticDataset dataset = MakeDataset(20000);
  const auto method = static_cast<SketchMethod>(state.range(0));
  SketchOptions options;
  options.capacity = kSketchSize;
  auto builder = MakeSketchBuilder(method, options);
  const auto& train = dataset.tables.train;
  auto keys = *train->GetColumn(kKeyColumn);
  auto values = *train->GetColumn(kTargetColumn);
  for (auto _ : state) {
    auto sketch = builder->SketchTrain(*keys, *values);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetLabel(SketchMethodToString(method));
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_SketchBuildTrain)
    ->Arg(static_cast<int>(SketchMethod::kTupsk))
    ->Arg(static_cast<int>(SketchMethod::kLv2sk))
    ->Arg(static_cast<int>(SketchMethod::kPrisk))
    ->Arg(static_cast<int>(SketchMethod::kIndsk))
    ->Arg(static_cast<int>(SketchMethod::kCsk))
    ->Unit(benchmark::kMillisecond);

// Ablation: bounded KMV selection vs sort-everything selection for TUPSK
// ranks.
struct RankedKey {
  uint64_t key_hash = 0;
  double rank = 0.0;
};

std::vector<RankedKey> RandomRankedKeys() {
  Rng rng(9);
  std::vector<RankedKey> offers(100000);
  for (auto& e : offers) {
    e.key_hash = rng.Next64();
    e.rank = rng.NextDouble();
  }
  return offers;
}

void BM_SelectionKmv(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<RankedKey> offers = RandomRankedKeys();
  for (auto _ : state) {
    KmvSelection selection(
        n, [](size_t) { return Value(); }, offers.size());
    Sketch out;
    selection.Select(
        [&] {
          for (size_t i = 0; i < offers.size(); ++i) {
            selection.Offer(offers[i].rank, offers[i].key_hash, i);
          }
        },
        &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(offers.size()));
}
BENCHMARK(BM_SelectionKmv)->Arg(256)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_SelectionFullSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<RankedKey> offers = RandomRankedKeys();
  for (auto _ : state) {
    std::vector<RankedKey> copy = offers;
    std::sort(copy.begin(), copy.end(),
              [](const RankedKey& a, const RankedKey& b) {
                return a.rank < b.rank;
              });
    copy.resize(std::min(n, copy.size()));
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(offers.size()));
}
BENCHMARK(BM_SelectionFullSort)->Arg(256)->Arg(4096)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace joinmi

BENCHMARK_MAIN();
