#ifndef MARAS_CORE_DISPROPORTIONALITY_H_
#define MARAS_CORE_DISPROPORTIONALITY_H_

#include <cstddef>

#include "core/drug_adr_rule.h"
#include "mining/itemset.h"
#include "mining/transaction_db.h"

namespace maras::core {

// ---------------------------------------------------------------------------
// Classic pharmacovigilance disproportionality statistics — the
// "statistical methods such as relative reporting ratio and
// disproportionality analysis" the paper cites as the state of the art it
// improves on (Section 1.2 / Related Work: Tatonetti et al., DuMouchel).
// Implemented here as comparison baselines for the benchmarks: rank the
// same multi-drug rules by PRR/ROR/IC instead of exclusiveness and measure
// ground-truth signal recovery.
// ---------------------------------------------------------------------------

// The standard 2×2 report contingency table for a drug set D and ADR set A:
//
//                 | has all of A | lacks some of A
//   has all of D  |      a       |       b
//   lacks some D  |      c       |       d
struct ContingencyTable {
  size_t a = 0;
  size_t b = 0;
  size_t c = 0;
  size_t d = 0;

  size_t n() const { return a + b + c + d; }
};

// Builds the table by exact counting over the report database.
ContingencyTable MakeContingencyTable(const mining::TransactionDatabase& db,
                                      const mining::Itemset& drugs,
                                      const mining::Itemset& adrs);

// Proportional Reporting Ratio: [a/(a+b)] / [c/(c+d)].
// Returns 0 on degenerate margins; capped at kDisproportionalityCap.
double Prr(const ContingencyTable& t);

// Reporting Odds Ratio: (a·d) / (b·c), capped likewise.
double Ror(const ContingencyTable& t);

// Yates-corrected chi-squared statistic of the table (1 df).
double ChiSquaredYates(const ContingencyTable& t);

// BCPNN Information Component with the usual +0.5 shrinkage:
// IC = log2[ (a + 0.5) / (E + 0.5) ], E = (a+b)(a+c)/N.
double InformationComponent(const ContingencyTable& t);

inline constexpr double kDisproportionalityCap = 1e9;

// 95%-style confidence interval for the PRR, on the usual log-normal
// approximation:
//   ln PRR ± z·sqrt(1/a − 1/(a+b) + 1/c − 1/(c+d))
// Degenerate cells (a zero that makes the SE undefined) yield the vacuous
// interval [0, cap]. Surveillance practice treats a signal as credible only
// when the interval's lower bound clears 1.
struct RatioInterval {
  double lower = 0.0;
  double upper = 0.0;
};
RatioInterval PrrInterval(const ContingencyTable& t, double z = 1.96);

// One rule's full disproportionality panel.
struct DisproportionalityResult {
  ContingencyTable table;
  double prr = 0.0;
  double ror = 0.0;
  double chi_squared = 0.0;
  double information_component = 0.0;

  // Evans et al. signal criterion, the standard operating threshold in
  // PRR-based surveillance: PRR >= 2, chi² >= 4, and at least 3 cases.
  bool MeetsEvansCriteria() const {
    return prr >= 2.0 && chi_squared >= 4.0 && table.a >= 3;
  }
};

// Evaluates a drug-ADR rule against the database.
DisproportionalityResult EvaluateDisproportionality(
    const mining::TransactionDatabase& db, const DrugAdrRule& rule);

}  // namespace maras::core

#endif  // MARAS_CORE_DISPROPORTIONALITY_H_
