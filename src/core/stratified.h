#ifndef MARAS_CORE_STRATIFIED_H_
#define MARAS_CORE_STRATIFIED_H_

#include <vector>

#include "core/disproportionality.h"
#include "core/drug_adr_rule.h"
#include "faers/preprocess.h"
#include "mining/bitmap.h"

namespace maras::core {

// ---------------------------------------------------------------------------
// Stratified signal analysis. Spontaneous-report associations are routinely
// confounded by demographics (an ADR common in the elderly co-occurs with
// every drug the elderly take). Standard practice — and the natural next
// step after the paper's drill-down by "patient's age, health history etc."
// (Section 4.1) — is to stratify the 2×2 tables by sex and age band and
// pool with the Mantel–Haenszel estimator, which measures the association
// *within* strata.
// ---------------------------------------------------------------------------

// Coarse age bands used by FAERS-style analyses.
enum class AgeBand : int {
  kUnknown = 0,
  kChild = 1,    // < 18
  kAdult = 2,    // 18–64
  kElderly = 3,  // >= 65
};

AgeBand AgeBandOf(double age_years);

// One demographic stratum and its 2×2 table for some rule.
struct StratumTable {
  faers::Sex sex = faers::Sex::kUnknown;
  AgeBand age_band = AgeBand::kUnknown;
  ContingencyTable table;
};

class StratifiedAnalyzer {
 public:
  // `db` and `demographics` must stay alive and aligned (transaction i ↔
  // demographics[i]; missing entries fall into the unknown stratum).
  StratifiedAnalyzer(const mining::TransactionDatabase* db,
                     const std::vector<faers::CaseDemographics>* demographics);

  // The per-stratum 2×2 tables of `rule` (only strata with at least one
  // report are returned, ordered by sex then age band). Production path:
  // the rule's drug/ADR report sets become TidBitmaps once, then every
  // stratum's three cells fall out of AND/AND3+popcount kernels against the
  // prebuilt stratum bitmaps (mining/bitmap.h) — no per-stratum merges.
  std::vector<StratumTable> Tables(const DrugAdrRule& rule) const;

  // Reference implementation of Tables via scalar sorted-merge counting.
  // Kept as the differential oracle: core_stratified_test asserts the two
  // paths produce identical tables on every rule it generates.
  std::vector<StratumTable> TablesScalar(const DrugAdrRule& rule) const;

  // Crude (unstratified) reporting odds ratio, for contrast.
  double CrudeRor(const DrugAdrRule& rule) const;

  // Mantel–Haenszel pooled odds ratio:
  //   OR_MH = Σ_i (a_i·d_i / n_i) / Σ_i (b_i·c_i / n_i).
  // Strata with n_i == 0 are skipped; a zero denominator with a positive
  // numerator is capped at kDisproportionalityCap; 0/0 yields 0.
  double MantelHaenszelRor(const DrugAdrRule& rule) const;

  // Confounding diagnostic: |log(crude) − log(MH)| > log(threshold) — the
  // usual "ratios differ by more than ~20%" rule (threshold 1.2).
  bool IsConfounded(const DrugAdrRule& rule, double threshold = 1.2) const;

  // Batch form of MantelHaenszelRor for a stratified screening run: rule i's
  // full stratification (tables over all sex × age-band strata, then the
  // pooled estimate) is computed by one pool task into slot i. Output is
  // positionally aligned with `rules` and element-identical to calling
  // MantelHaenszelRor serially; num_threads 0/1 degrade to the serial loop.
  std::vector<double> MantelHaenszelRors(const std::vector<DrugAdrRule>& rules,
                                         size_t num_threads) const;

 private:
  const mining::TransactionDatabase* db_;
  const std::vector<faers::CaseDemographics>* demographics_;
  // Sorted transaction ids per stratum, built once.
  std::vector<std::vector<mining::TransactionId>> stratum_tids_;
  // The same strata as dense bitmaps over [0, db->size()), for the kernel
  // counting path. Built once alongside stratum_tids_.
  std::vector<mining::TidBitmap> stratum_bitmaps_;
};

}  // namespace maras::core

#endif  // MARAS_CORE_STRATIFIED_H_
