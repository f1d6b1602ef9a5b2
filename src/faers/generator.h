#ifndef MARAS_FAERS_GENERATOR_H_
#define MARAS_FAERS_GENERATOR_H_

#include <string>
#include <vector>

#include "faers/report.h"
#include "faers/vocabulary.h"
#include "util/random.h"
#include "util/statusor.h"

namespace maras::faers {

// One injected multi-drug ADR signal: `reports` cases take all of `drugs`
// together and exhibit `adrs`. To make the signal *exclusive* (the property
// MARAS ranks by), the individual drugs also appear throughout the
// background where the ADRs do not follow; `single_drug_leak` controls how
// often a signal case drops to a single drug of the combination (leakage
// weakens exclusiveness — set it high to build non-interesting combos).
struct SignalSpec {
  std::string name;
  std::vector<std::string> drugs;
  std::vector<std::string> adrs;
  size_t reports = 60;
  double single_drug_leak = 0.05;
  // Probability that a combo report actually manifests the ADRs — real
  // interactions do not fire in every patient, so the true-signal rules
  // have moderate confidence while remaining exclusive. (Reports without
  // the signal ADRs get background reactions instead.)
  double adr_penetrance = 0.75;
  // Mean number of extra background drugs / ADRs mixed into each signal
  // report (reports in FAERS rarely list the interacting pair alone).
  double extra_drugs_mean = 1.0;
  double extra_adrs_mean = 0.5;
};

// A strong single-drug effect: whenever `drug` appears in a report (alone
// or co-medicated), its ADRs are attached with probability `attach_prob`.
// These create the high-confidence but *non-exclusive* multi-drug decoys
// that dominate the naive confidence/lift rankings in the paper's
// Table 5.2 — e.g. two antacids taken together are almost always reported
// with osteoporosis, yet each alone already explains it (therapeutic
// duplication, Case III).
struct SingleDrugEffectSpec {
  std::string drug;
  std::vector<std::string> adrs;
  // P(ADRs reported | drug present in the report).
  double attach_prob = 0.75;
};

struct GeneratorConfig {
  uint64_t seed = 20140101;
  int year = 2014;
  int quarter = 1;
  size_t n_reports = 25000;  // background reports (signals add on top)
  // Vocabulary sizes; curated names come first, synthetic names pad the rest.
  size_t n_drugs = 2500;
  size_t n_adrs = 900;
  // Zipf exponents for background popularity skew (FAERS is heavy-tailed).
  double drug_zipf_s = 1.02;
  double adr_zipf_s = 1.02;
  // Per-report cardinalities (Poisson + 1).
  double mean_extra_drugs_per_report = 2.2;
  double mean_extra_adrs_per_report = 1.6;
  // Name-dirtiness knobs, exercising the cleaning pipeline.
  double misspelling_rate = 0.015;
  double alias_rate = 0.10;
  double dose_decoration_rate = 0.05;
  // Share of reports marked expedited (the paper keeps EXP only).
  double expedited_fraction = 0.85;

  std::vector<SignalSpec> signals;
  std::vector<SingleDrugEffectSpec> single_drug_effects;
};

// Returns the default injected signals: the paper's case studies and table
// examples (from KnownInteractions()), scaled for `n_reports`.
std::vector<SignalSpec> DefaultSignals(size_t n_reports);

// Default single-drug effects mimicking Table 5.2's antacid/osteoporosis and
// transplant clusters.
std::vector<SingleDrugEffectSpec> DefaultSingleDrugEffects(size_t n_reports);

// What the generator actually injected — benches verify recovery against it.
struct GroundTruth {
  std::vector<SignalSpec> signals;
  std::vector<SingleDrugEffectSpec> single_drug_effects;
};

// Deterministic synthetic FAERS quarter generator.
class SyntheticGenerator {
 public:
  explicit SyntheticGenerator(GeneratorConfig config);

  // Generates one quarter. The same config (incl. seed) always produces the
  // identical dataset.
  maras::StatusOr<QuarterDataset> Generate() const;

  const GroundTruth& ground_truth() const { return ground_truth_; }
  const GeneratorConfig& config() const { return config_; }

  // The full (clean, canonical) vocabularies the generator draws from.
  const std::vector<std::string>& drug_vocabulary() const { return drugs_; }
  const std::vector<std::string>& adr_vocabulary() const { return adrs_; }

 private:
  // Renders a canonical drug name as the verbatim string a reporter would
  // type: maybe an alias, maybe misspelled, maybe dose-decorated.
  std::string DirtyDrugName(const std::string& canonical, maras::Rng* rng) const;
  std::string Misspell(const std::string& name, maras::Rng* rng) const;

  // Appends `count` distinct canonical background names of `vocabulary`,
  // drawn from `zipf`.
  static void FillBackground(const std::vector<std::string>& vocabulary,
                             size_t count, const maras::ZipfTable& zipf,
                             maras::Rng* rng, std::vector<std::string>* out);

  // Attaches single-drug-effect ADRs for every effect drug present in
  // `drugs`, then renders the final (dirty) report content into `report`,
  // interning its names into `names`.
  void FinishReport(const std::vector<std::string>& drugs,
                    std::vector<std::string>* reactions,
                    const maras::ZipfTable& adr_zipf, maras::Rng* rng,
                    NameArena* names, Report* report) const;

  GeneratorConfig config_;
  GroundTruth ground_truth_;
  std::vector<std::string> drugs_;
  std::vector<std::string> adrs_;
};

}  // namespace maras::faers

#endif  // MARAS_FAERS_GENERATOR_H_
