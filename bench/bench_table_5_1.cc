// Regenerates Table 5.1: FAERS 2014 corpus statistics per quarter
// (reports / distinct drugs / distinct ADRs), on the synthetic FAERS
// substitute. Paper values are printed alongside for shape comparison; the
// synthetic corpus is scaled by MARAS_SCALE (1.0 -> ~25k reports/quarter,
// 5.0 ≈ paper scale).

#include <cstdio>
#include <set>

#include "bench/bench_util.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

struct PaperRow {
  int quarter;
  long long reports;
  long long drugs;
  long long adrs;
};

// Table 5.1 as published (expedited reports, FAERS 2014).
constexpr PaperRow kPaper[] = {
    {1, 126755, 37661, 9079},
    {2, 138278, 37780, 9324},
    {3, 121725, 33133, 9418},
    {4, 121490, 32721, 9234},
};

}  // namespace

int main() {
  using namespace maras;
  const double scale = bench::ScaleFromEnv();
  bench::PrintHeader("Table 5.1 — FAERS data statistics per 2014 quarter");
  std::printf("scale=%.2f (MARAS_SCALE; 1.0 = 25k background reports/quarter)\n\n",
              scale);
  std::printf("%-4s | %12s %12s %9s | %12s %10s %9s %9s\n", "Q",
              "paper:reports", "paper:drugs", "paper:ADRs", "gen:reports",
              "gen:kept", "raw drugs", "ADRs");
  std::printf("-----+--------------------------------------+------------------------------------------\n");
  for (const PaperRow& row : kPaper) {
    Stopwatch timer;
    bench::PreparedQuarter quarter = bench::PrepareQuarter(row.quarter, scale);
    // Raw distinct verbatim drug strings (what the paper's "Drugs" counts,
    // before cleaning; one arena id each) and cleaned vocabulary sizes.
    std::set<faers::NameId> raw_drugs;
    std::set<faers::NameId> raw_adrs;
    for (const auto& report : quarter.dataset.reports) {
      raw_drugs.insert(report.drugs.begin(), report.drugs.end());
      raw_adrs.insert(report.reactions.begin(), report.reactions.end());
    }
    std::printf("%-4d | %12s %12s %9s | %12s %10s %9s %9s   (%.1fs)\n",
                row.quarter, FormatWithCommas(row.reports).c_str(),
                FormatWithCommas(row.drugs).c_str(),
                FormatWithCommas(row.adrs).c_str(),
                FormatWithCommas(
                    static_cast<long long>(quarter.dataset.reports.size()))
                    .c_str(),
                FormatWithCommas(
                    static_cast<long long>(quarter.pre.stats.reports_kept))
                    .c_str(),
                FormatWithCommas(static_cast<long long>(raw_drugs.size()))
                    .c_str(),
                FormatWithCommas(static_cast<long long>(raw_adrs.size()))
                    .c_str(),
                timer.ElapsedSeconds());
    std::printf(
        "     |   cleaning: %zu fuzzy fixes, %zu alias merges -> %zu drugs, "
        "%zu ADRs after cleaning\n",
        quarter.pre.stats.fuzzy_corrections,
        quarter.pre.stats.alias_resolutions, quarter.pre.stats.distinct_drugs,
        quarter.pre.stats.distinct_adrs);
  }
  std::printf(
      "\nShape check: reports ~O(100k-scale) with thousands of distinct drug\n"
      "strings and ~1k ADR terms; raw drug-string count exceeds the cleaned\n"
      "vocabulary (misspellings/aliases/doses), as in FAERS.\n");
  return 0;
}
