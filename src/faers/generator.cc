#include "faers/generator.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace maras::faers {

namespace {

// Country pool for the occr_country demographic column.
constexpr const char* kCountries[] = {"US", "GB", "DE", "FR", "JP",
                                      "CA", "MX", "BR", "IT", "ES"};

size_t ScaledCount(size_t n_reports, double per_25k) {
  double scaled = per_25k * static_cast<double>(n_reports) / 25000.0;
  return scaled < 8.0 ? 8 : static_cast<size_t>(scaled);
}

}  // namespace

std::vector<SignalSpec> DefaultSignals(size_t n_reports) {
  std::vector<SignalSpec> specs;
  for (const KnownInteraction& known : KnownInteractions()) {
    SignalSpec spec;
    spec.name = known.name;
    spec.drugs = known.drugs;
    spec.adrs = known.adrs;
    spec.reports =
        ScaledCount(n_reports, 60.0 * known.exposure_multiplier);
    spec.single_drug_leak = 0.05;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<SingleDrugEffectSpec> DefaultSingleDrugEffects(size_t n_reports) {
  (void)n_reports;  // attach probabilities are scale-free
  std::vector<SingleDrugEffectSpec> specs;
  // The antacid cluster that dominates Table 5.2's raw-confidence ranking:
  // each antacid alone is strongly associated with osteoporosis, so every
  // antacid pair forms a high-confidence but non-exclusive rule
  // (therapeutic duplication, Case III).
  for (const char* drug : {"ZANTAC", "TUMS", "MYLANTA", "ROLAIDS", "PEPCID"}) {
    specs.push_back(SingleDrugEffectSpec{drug, {"OSTEOPOROSIS"}, 0.75});
  }
  // Transplant-regimen cluster (graft-versus-host disease reports).
  for (const char* drug : {"METHOTREXATE", "PROGRAF"}) {
    specs.push_back(SingleDrugEffectSpec{
        drug, {"CHRONIC GRAFT VERSUS HOST DISEASE"}, 0.55});
  }
  // Xolair alone is reported with asthma events (Table 3.1's contextual
  // rules have non-zero single-drug confidence).
  specs.push_back(SingleDrugEffectSpec{"XOLAIR", {"ASTHMA"}, 0.4});
  return specs;
}

SyntheticGenerator::SyntheticGenerator(GeneratorConfig config)
    : config_(std::move(config)) {
  // Vocabulary: curated names first (they get the head of the Zipf), then
  // synthetic padding out to the configured cardinality.
  drugs_ = CuratedDrugNames();
  if (drugs_.size() < config_.n_drugs) {
    auto padding = SyntheticNames("DRUG", config_.n_drugs - drugs_.size());
    drugs_.insert(drugs_.end(), padding.begin(), padding.end());
  } else {
    drugs_.resize(config_.n_drugs);
  }
  adrs_ = CuratedAdrTerms();
  if (adrs_.size() < config_.n_adrs) {
    auto padding = SyntheticNames("REACTION", config_.n_adrs - adrs_.size());
    adrs_.insert(adrs_.end(), padding.begin(), padding.end());
  } else {
    adrs_.resize(config_.n_adrs);
  }
  if (config_.signals.empty()) {
    config_.signals = DefaultSignals(config_.n_reports);
  }
  if (config_.single_drug_effects.empty()) {
    config_.single_drug_effects = DefaultSingleDrugEffects(config_.n_reports);
  }
  ground_truth_.signals = config_.signals;
  ground_truth_.single_drug_effects = config_.single_drug_effects;
}

std::string SyntheticGenerator::Misspell(const std::string& name,
                                         maras::Rng* rng) const {
  if (name.size() < 4) return name;
  std::string out = name;
  size_t pos = 1 + rng->Uniform(out.size() - 2);
  switch (rng->Uniform(3)) {
    case 0:  // transpose adjacent characters
      std::swap(out[pos], out[pos - 1]);
      break;
    case 1:  // drop a character
      out.erase(out.begin() + static_cast<long>(pos));
      break;
    default:  // duplicate a character
      out.insert(out.begin() + static_cast<long>(pos), out[pos]);
      break;
  }
  return out;
}

std::string SyntheticGenerator::DirtyDrugName(const std::string& canonical,
                                              maras::Rng* rng) const {
  std::string name = canonical;
  if (rng->Bernoulli(config_.alias_rate)) {
    // Emit a brand/generic alias when the vocabulary has one for this drug.
    for (const DrugAlias& alias : CuratedDrugAliases()) {
      if (alias.canonical == canonical) {
        name = alias.alias;
        break;
      }
    }
  }
  if (rng->Bernoulli(config_.misspelling_rate)) {
    name = Misspell(name, rng);
  }
  if (rng->Bernoulli(config_.dose_decoration_rate)) {
    static constexpr const char* kDecorations[] = {
        " 10MG", " 50MG TABLET", " (UNKNOWN)", " CAPSULE", " 0.5ML INJECTION"};
    name += kDecorations[rng->Uniform(5)];
  }
  return name;
}

void SyntheticGenerator::FillBackground(
    const std::vector<std::string>& vocabulary, size_t count,
    const maras::ZipfTable& zipf, maras::Rng* rng,
    std::vector<std::string>* out) {
  std::unordered_set<size_t> chosen;
  for (size_t i = 0; i < count && chosen.size() < vocabulary.size(); ++i) {
    size_t rank = zipf.Sample(rng);
    if (!chosen.insert(rank).second) continue;
    out->push_back(vocabulary[rank]);
  }
}

void SyntheticGenerator::FinishReport(const std::vector<std::string>& drugs,
                                      std::vector<std::string>* reactions,
                                      const maras::ZipfTable& adr_zipf,
                                      maras::Rng* rng, NameArena* names,
                                      Report* report) const {
  // Single-drug effects: each effect drug present in the report attaches
  // its ADRs with the configured probability, regardless of what else the
  // patient took — this is what makes combinations of two effect drugs
  // high-confidence yet non-exclusive.
  for (const SingleDrugEffectSpec& effect : config_.single_drug_effects) {
    bool present = false;
    for (const std::string& drug : drugs) present |= drug == effect.drug;
    if (present && rng->Bernoulli(effect.attach_prob)) {
      for (const std::string& adr : effect.adrs) reactions->push_back(adr);
    }
  }
  if (reactions->empty()) {
    FillBackground(adrs_, 1, adr_zipf, rng, reactions);
  }
  // De-duplicate reactions while preserving first-mention order.
  for (const std::string& adr : *reactions) {
    const NameId id = names->Intern(adr);
    if (std::find(report->reactions.begin(), report->reactions.end(), id) ==
        report->reactions.end()) {
      report->reactions.push_back(id);
    }
  }
  // Render verbatim (dirty) drug strings last, from canonical names.
  for (const std::string& drug : drugs) {
    report->drugs.push_back(names->Intern(DirtyDrugName(drug, rng)));
  }
}

maras::StatusOr<QuarterDataset> SyntheticGenerator::Generate() const {
  if (config_.n_reports == 0) {
    return maras::Status::InvalidArgument("n_reports must be positive");
  }
  if (drugs_.empty() || adrs_.empty()) {
    return maras::Status::InvalidArgument("empty vocabulary");
  }
  // Quarter-specific stream: same seed, different quarter -> different data.
  maras::Rng rng(config_.seed * 1315423911ULL +
                 static_cast<uint64_t>(config_.year) * 4 +
                 static_cast<uint64_t>(config_.quarter));
  maras::ZipfTable drug_zipf(drugs_.size(), config_.drug_zipf_s);
  maras::ZipfTable adr_zipf(adrs_.size(), config_.adr_zipf_s);

  QuarterDataset dataset;
  dataset.year = config_.year;
  dataset.quarter = config_.quarter;
  uint64_t next_case_id =
      10000000ULL + static_cast<uint64_t>(config_.quarter) * 2000000ULL;

  auto new_report = [&](maras::Rng* r) {
    Report report;
    report.case_id = next_case_id++;
    report.case_version = 1;
    report.type = r->Bernoulli(config_.expedited_fraction)
                      ? ReportType::kExpedited
                      : ReportType::kPeriodic;
    report.sex = r->Bernoulli(0.55) ? Sex::kFemale : Sex::kMale;
    report.age = 18 + static_cast<double>(r->Uniform(75));
    report.country = kCountries[r->Uniform(10)];
    return report;
  };

  // 1. Background reports: independent Zipf draws — co-occurrence of any
  // specific drug pair is rare, so background contributes the denominator
  // (single-drug supports) without faking interactions. Single-drug-effect
  // ADRs attach inside FinishReport.
  std::vector<std::string> drugs;
  std::vector<std::string> reactions;
  for (size_t i = 0; i < config_.n_reports; ++i) {
    Report report = new_report(&rng);
    drugs.clear();
    reactions.clear();
    FillBackground(drugs_,
                   1 + static_cast<size_t>(
                           rng.Poisson(config_.mean_extra_drugs_per_report)),
                   drug_zipf, &rng, &drugs);
    FillBackground(
        adrs_,
        static_cast<size_t>(rng.Poisson(config_.mean_extra_adrs_per_report)),
        adr_zipf, &rng, &reactions);
    FinishReport(drugs, &reactions, adr_zipf, &rng, &dataset.names, &report);
    dataset.reports.push_back(std::move(report));
  }

  // 2. Injected DDI signals.
  for (const SignalSpec& signal : config_.signals) {
    for (size_t i = 0; i < signal.reports; ++i) {
      Report report = new_report(&rng);
      drugs.clear();
      reactions.clear();
      if (rng.Bernoulli(signal.single_drug_leak) && signal.drugs.size() > 1) {
        // Leakage report: a single drug of the combo with the same ADRs.
        drugs.push_back(signal.drugs[rng.Uniform(signal.drugs.size())]);
      } else {
        drugs = signal.drugs;
      }
      if (rng.Bernoulli(signal.adr_penetrance)) {
        reactions = signal.adrs;
      } else {
        // The interaction did not manifest: background reactions only.
        FillBackground(adrs_, 1, adr_zipf, &rng, &reactions);
      }
      FillBackground(drugs_,
                     static_cast<size_t>(rng.Poisson(signal.extra_drugs_mean)),
                     drug_zipf, &rng, &drugs);
      FillBackground(adrs_,
                     static_cast<size_t>(rng.Poisson(signal.extra_adrs_mean)),
                     adr_zipf, &rng, &reactions);
      FinishReport(drugs, &reactions, adr_zipf, &rng, &dataset.names,
                   &report);
      dataset.reports.push_back(std::move(report));
    }
  }

  // 3. Case versioning: resubmit a small share of cases as version 2 with a
  // slightly extended reaction list, exercising keep-latest-version dedup.
  size_t resubmissions = dataset.reports.size() / 50;
  std::unordered_set<uint64_t> resubmitted;
  const size_t original_count = dataset.reports.size();
  for (size_t i = 0; i < resubmissions; ++i) {
    const Report& original = dataset.reports[rng.Uniform(original_count)];
    // One revision per case, so primary ids stay unique.
    if (!resubmitted.insert(original.case_id).second) continue;
    Report revised = original;
    revised.case_version = original.case_version + 1;
    reactions.clear();
    FillBackground(adrs_, 1, adr_zipf, &rng, &reactions);
    for (const std::string& adr : reactions) {
      revised.reactions.push_back(dataset.names.Intern(adr));
    }
    dataset.reports.push_back(std::move(revised));
  }

  rng.Shuffle(&dataset.reports);
  return dataset;
}

}  // namespace maras::faers
