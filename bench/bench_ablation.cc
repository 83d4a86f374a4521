// E9+ — design-choice ablations beyond the paper's headline experiments.
//
// A. Estimator bias-correction variants on sketch samples: plain MLE vs
//    Miller–Madow vs Laplace smoothing — the Conclusion's future-work
//    pointer ("estimators based on Laplace smoothing may be more
//    appropriate for controlling false discoveries").
// B. Featurization (AGG) sensitivity: how the choice of aggregation
//    function changes the measured MI on the same table pair (Section
//    III-B's Example 2 discussion).
// C. The Section IV-B worked example, measured: LV2SK vs TUPSK target-
//    entropy retention on the pathological skewed table.

#include "bench/bench_util.h"

#include "src/mi/entropy.h"
#include "src/mi/histogram.h"
#include "src/sketch/key_hash.h"

namespace joinmi {
namespace bench {
namespace {

// ------------------------------------------------------------ Ablation A --

void RunBiasCorrectionAblation() {
  std::printf("A. Plug-in estimator variants on TUPSK sketch samples\n");
  std::printf("   (Trinomial, m sweep, n = 256; MSE vs analytic MI and\n"
              "   false-discovery score = mean estimate on independent "
              "data)\n\n");
  PrintHeader({"variant    ", "  m ", " MSE  ", "indep. score"});
  for (uint64_t m : {64u, 256u, 1024u}) {
    for (MIEstimatorKind kind :
         {MIEstimatorKind::kMLE, MIEstimatorKind::kMillerMadow,
          MIEstimatorKind::kLaplace}) {
      std::vector<Observation> obs;
      double indep_score = 0.0;
      int indep_count = 0;
      for (uint64_t trial = 0; trial < 24; ++trial) {
        SyntheticSpec spec;
        spec.distribution = SyntheticDistribution::kTrinomial;
        spec.m = m;
        spec.num_rows = 10000;
        spec.key_scheme = KeyScheme::kKeyInd;
        spec.seed = 9100 + m + trial;
        // Half the trials draw near-zero true MI to measure the false-
        // discovery behavior that smoothing is meant to control.
        if (trial % 2 == 0) {
          spec.min_mi = 0.0;
          spec.max_mi = 0.05;
        }
        auto dataset = GenerateSyntheticDataset(spec);
        if (!dataset.ok()) continue;
        auto result = SketchEstimate(*dataset, SketchMethod::kTupsk, 256,
                                     kind, {}, trial + 1);
        if (!result.ok()) continue;
        obs.push_back(Observation{dataset->true_mi, result->mi,
                                  result->join_size});
        if (dataset->true_mi < 0.1) {
          indep_score += result->mi;
          ++indep_count;
        }
      }
      const SeriesStats stats = Summarize(obs);
      std::printf("| %-11s | %4llu | %5.3f | %10.3f |\n",
                  MIEstimatorKindToString(kind),
                  static_cast<unsigned long long>(m), stats.mse,
                  indep_count > 0 ? indep_score / indep_count : 0.0);
    }
  }
  std::printf(
      "\n   Shape: Miller-Madow and Laplace cut the near-independent "
      "score\n   (false discoveries) relative to plain MLE, most visibly at "
      "large m.\n\n");
}

// ------------------------------------------------------------ Ablation B --

void RunAggregationAblation() {
  std::printf("B. Featurization function sensitivity (same table pair,\n"
              "   different AGG; full join vs TUPSK n = 512)\n\n");
  // Candidate with ~8 rows per key whose values carry a per-key signal
  // plus within-key spread: different AGGs extract different amounts of
  // information about the target.
  Rng rng(1234);
  std::vector<std::string> train_keys, cand_keys;
  std::vector<int64_t> targets, cand_values;
  constexpr int kKeys = 400;
  for (int i = 0; i < 6000; ++i) {
    const int k = static_cast<int>(rng.NextBounded(kKeys));
    train_keys.push_back("k" + std::to_string(k));
    targets.push_back(k % 7);
  }
  for (int k = 0; k < kKeys; ++k) {
    const int group_size = 2 + static_cast<int>(rng.NextBounded(10));
    for (int j = 0; j < group_size; ++j) {
      cand_keys.push_back("k" + std::to_string(k));
      cand_values.push_back((k % 7) * 12 +
                            static_cast<int64_t>(rng.NextBounded(12)));
    }
  }
  auto train = *Table::FromColumns(
      {{"K", Column::MakeString(train_keys)},
       {"Y", Column::MakeInt64(targets)}});
  auto cand = *Table::FromColumns(
      {{"K", Column::MakeString(cand_keys)},
       {"Z", Column::MakeInt64(cand_values)}});

  PrintHeader({"AGG   ", "full-join MI", "sketch MI", "samples"});
  for (AggKind agg : {AggKind::kAvg, AggKind::kMedian, AggKind::kMin,
                      AggKind::kMax, AggKind::kSum, AggKind::kMode,
                      AggKind::kCount, AggKind::kFirst}) {
    JoinMIConfig config;
    config.sketch_capacity = 512;
    config.aggregation = agg;
    config.estimator = MIEstimatorKind::kMLE;
    const JoinMIQuerySpec spec{"K", "Y", "K", "Z"};
    auto full = FullJoinMI(*train, *cand, spec, config);
    auto sketched = SketchJoinMI(*train, *cand, spec, config);
    if (!full.ok() || !sketched.ok()) continue;
    std::printf("| %-6s | %12.3f | %9.3f | %7zu |\n", AggKindToString(agg),
                full->mi, sketched->mi, sketched->sample_size);
  }
  std::printf(
      "\n   Shape: AVG/MEDIAN/MIN/MAX/SUM (key-signal preserving) score "
      "high;\n   COUNT only reflects key frequencies (low MI); the sketch\n"
      "   tracks the full join for every AGG.\n\n");
}

// ------------------------------------------------------------ Ablation C --

void RunPathologicalEntropy() {
  std::printf("C. Section IV-B worked example: target entropy retained by\n"
              "   sketches of the pathological table (K=[a..e,f*95],\n"
              "   Y=[0*5,1..95], n = 5; 2000 hash-seed trials)\n\n");
  std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
  std::vector<int64_t> targets = {0, 0, 0, 0, 0};
  for (int i = 1; i <= 95; ++i) {
    keys.push_back("f");
    targets.push_back(i);
  }
  auto table = *Table::FromColumns({{"K", Column::MakeString(keys)},
                                    {"Y", Column::MakeInt64(targets)}});
  // Full-table entropy for reference (paper: ~4.5247 nats).
  {
    ValueCoder coder;
    std::vector<uint32_t> codes;
    for (int64_t t : targets) codes.push_back(coder.Encode(Value(t)));
    std::printf("   full-table H(Y) = %.4f nats\n",
                EntropyMLE(BuildHistogram(codes)));
  }
  PrintHeader({"sketch", "mean H(Y) in sketch", "P[H = 0]"});
  for (SketchMethod method : {SketchMethod::kLv2sk, SketchMethod::kTupsk}) {
    double h_acc = 0.0;
    int zero_entropy = 0;
    constexpr int kTrials = 2000;
    for (int trial = 0; trial < kTrials; ++trial) {
      SketchOptions options;
      options.capacity = 5;
      options.hash_seed = static_cast<uint32_t>(trial + 1);
      options.sampling_seed = static_cast<uint64_t>(trial) * 13 + 7;
      auto builder = MakeSketchBuilder(method, options);
      auto sketch = *builder->SketchTrain(*(*table->GetColumn("K")),
                                          *(*table->GetColumn("Y")));
      KeyCoder coder;
      coder.Reset(sketch.size());
      std::vector<uint32_t> codes;
      for (size_t i = 0; i < sketch.size(); ++i) {
        codes.push_back(coder.Add(sketch.ValueHash(i)));
      }
      const double h = EntropyMLE(BuildHistogram(codes));
      h_acc += h;
      if (h == 0.0) ++zero_entropy;
    }
    std::printf("| %-6s | %19.3f | %8.3f |\n", SketchMethodToString(method),
                h_acc / kTrials, static_cast<double>(zero_entropy) / kTrials);
  }
  std::printf(
      "\n   Shape: LV2SK collapses to zero target entropy whenever level-1\n"
      "   skips key f (P ~ 1/6, the paper's calculation); TUPSK never "
      "does.\n");
}

}  // namespace
}  // namespace bench
}  // namespace joinmi

int main() {
  std::printf("E9+ / Design-choice ablations (see DESIGN.md section 3).\n\n");
  joinmi::bench::RunBiasCorrectionAblation();
  joinmi::bench::RunAggregationAblation();
  joinmi::bench::RunPathologicalEntropy();
  return 0;
}
