#ifndef MARAS_FAERS_PREPROCESS_H_
#define MARAS_FAERS_PREPROCESS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "faers/ingest.h"
#include "faers/report.h"
#include "mining/item_dictionary.h"
#include "mining/transaction_db.h"
#include "text/dictionary.h"
#include "text/normalizer.h"
#include "util/statusor.h"

namespace maras::faers {

// The paper's first mining step (Section 5.2): extract drugs and ADRs from
// FAERS reports, keep only the latest version of each resubmitted case,
// clean names (deduplication and misspelling correction), and hand the
// result to the miner.
struct PreprocessOptions {
  // Keep only expedited (EXP) reports — the serious-event subset the paper
  // selects in Section 5.1.
  bool expedited_only = true;
  text::NormalizerOptions normalizer;
  // Maximum edit distance for dictionary-based misspelling correction
  // against the curated drug vocabulary and brand->generic aliases; 0
  // disables fuzzy matching.
  size_t max_edit_distance = 1;
};

struct PreprocessStats {
  size_t reports_in = 0;
  size_t reports_kept = 0;         // after EXP filter + version dedup
  size_t dropped_not_expedited = 0;
  size_t dropped_stale_version = 0;
  size_t dropped_empty = 0;        // no drugs or no reactions after cleaning
  size_t distinct_drugs = 0;
  size_t distinct_adrs = 0;
  size_t drug_mentions = 0;
  size_t adr_mentions = 0;
  size_t fuzzy_corrections = 0;    // misspellings repaired
  size_t alias_resolutions = 0;    // brand names mapped to canonical
};

// Demographics retained per kept report, for stratified analyses
// (age/sex confounding control) and drill-down.
struct CaseDemographics {
  Sex sex = Sex::kUnknown;
  double age = -1.0;  // years; < 0 unreported
};

// The cleaned, mineable form of a quarter: the interned item vocabulary, one
// transaction per kept report, the report identity for drill-down
// (transaction i came from primary_ids[i]) and its demographics
// (demographics[i]).
struct PreprocessResult {
  mining::ItemDictionary items;
  mining::TransactionDatabase transactions;
  std::vector<uint64_t> primary_ids;
  std::vector<CaseDemographics> demographics;
  PreprocessStats stats;
};

class Preprocessor {
 public:
  explicit Preprocessor(PreprocessOptions options);

  // Processes one quarter into a transaction database.
  maras::StatusOr<PreprocessResult> Process(
      const QuarterDataset& dataset) const;

  // As above, but additionally records drop accounting into `report` (one
  // warning per drop category with a non-zero count), so a degraded
  // surveillance run can surface what the cleaning stage discarded.
  maras::StatusOr<PreprocessResult> Process(const QuarterDataset& dataset,
                                            IngestReport* report) const;

  // The spelling dictionary in use (exposed for tests).
  const text::Dictionary& drug_dictionary() const { return drug_dictionary_; }

 private:
  // Normalizes then resolves one drug name; updates stats.
  std::string CleanDrugName(const std::string& raw,
                            std::unordered_map<std::string, std::string>* cache,
                            PreprocessStats* stats) const;

  PreprocessOptions options_;
  text::Dictionary drug_dictionary_;
};

}  // namespace maras::faers

#endif  // MARAS_FAERS_PREPROCESS_H_
