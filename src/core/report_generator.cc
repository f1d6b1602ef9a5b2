#include "core/report_generator.h"

#include "core/disproportionality.h"
#include "util/string_util.h"

namespace maras::core {

namespace {

// Length cap of the severe-and-undocumented alert list.
constexpr size_t kMaxAlerts = 5;

std::string Ratio(double v) {
  return v >= kDisproportionalityCap ? "inf" : FormatDouble(v, 1);
}

}  // namespace

maras::StatusOr<std::string> GenerateMarkdownReport(
    const ReportInputs& inputs, const ReportOptions& options) {
  if (inputs.current == nullptr || inputs.analysis == nullptr ||
      inputs.ranked == nullptr || inputs.knowledge_base == nullptr) {
    return maras::Status::InvalidArgument(
        "report inputs incomplete (current/analysis/ranked/knowledge_base)");
  }
  const faers::PreprocessResult& current = *inputs.current;
  const AnalysisResult& analysis = *inputs.analysis;
  const std::vector<RankedMcac>& ranked = *inputs.ranked;
  const KnowledgeBase& kb = *inputs.knowledge_base;

  std::string md;
  md += "# " + inputs.title + "\n\n";
  md += "Reports analyzed: " +
        FormatWithCommas(
            static_cast<long long>(current.transactions.size())) +
        " (of " +
        FormatWithCommas(static_cast<long long>(current.stats.reports_in)) +
        " submitted; " + std::to_string(current.stats.fuzzy_corrections) +
        " drug-name corrections, " +
        std::to_string(current.stats.alias_resolutions) +
        " brand-name merges)\n\n";
  md += "Rule space: " +
        FormatWithCommas(static_cast<long long>(analysis.stats.total_rules)) +
        " raw rules -> " +
        FormatWithCommas(
            static_cast<long long>(analysis.stats.filtered_rules)) +
        " drug=>ADR -> " +
        FormatWithCommas(static_cast<long long>(analysis.stats.mcac_count)) +
        " contextual clusters\n\n";

  md += "## Top interaction signals (exclusiveness ranking)\n\n";
  md += "| # | combination => reactions | supp | conf | excl | PRR "
        "[95% CI] | severity | novelty |\n";
  md += "|---|---|---|---|---|---|---|---|\n";
  const size_t top_k = std::min(options.top_signals, ranked.size());
  for (size_t i = 0; i < top_k; ++i) {
    const RankedMcac& entry = ranked[i];
    auto panel = EvaluateDisproportionality(current.transactions,
                                            entry.mcac.target);
    RatioInterval ci = PrrInterval(panel.table);
    md += "| " + std::to_string(i + 1) + " | " +
          RuleToString(entry.mcac.target, current.items) + " | " +
          std::to_string(entry.mcac.target.support) + " | " +
          FormatDouble(entry.mcac.target.confidence, 2) + " | " +
          FormatDouble(entry.score, 3) + " | " + Ratio(panel.prr) + " [" +
          Ratio(ci.lower) + ", " + Ratio(ci.upper) + "] | " +
          SeverityName(MaxSeverity(entry.mcac.target, current.items)) +
          " | " +
          NoveltyClassName(kb.Classify(entry.mcac.target, current.items)) +
          " |\n";
  }

  md += "\n## Severe, previously undocumented signals\n\n";
  size_t alerts = 0;
  for (size_t i = 0; i < ranked.size() && alerts < kMaxAlerts; ++i) {
    const DrugAdrRule& target = ranked[i].mcac.target;
    if (static_cast<int>(MaxSeverity(target, current.items)) <
        static_cast<int>(options.alert_severity)) {
      continue;
    }
    if (kb.Classify(target, current.items) ==
        NoveltyClass::kKnownInteraction) {
      continue;
    }
    md += "- **" + RuleToString(target, current.items) + "** (rank " +
          std::to_string(i + 1) + ", exclusiveness " +
          FormatDouble(ranked[i].score, 3) + ") — needs review\n";
    ++alerts;
  }
  if (alerts == 0) md += "- none this quarter\n";

  if (!inputs.watchlist.empty()) {
    md += "\n## Watched combinations — quarter-over-quarter\n\n";
    // Header from the first entry's labels.
    md += "| combination |";
    for (const auto& row : inputs.watchlist.front().trend) {
      md += " " + row.label + " |";
    }
    md += " trend |\n|---|";
    for (size_t i = 0; i < inputs.watchlist.front().trend.size(); ++i) {
      md += "---|";
    }
    md += "---|\n";
    for (const WatchlistEntry& entry : inputs.watchlist) {
      // Append piecewise rather than chaining operator+: GCC 12 raises a
      // -Wrestrict false positive (PR105651) on the inlined temporary chain,
      // and piecewise appends skip the temporaries entirely.
      md += "| ";
      md += entry.label;
      md += " |";
      for (const auto& row : entry.trend) {
        md += ' ';
        md += FormatDouble(row.confidence, 2);
        md += " |";
      }
      md += ' ';
      md += TrendVerdictName(ClassifyTrend(entry.trend));
      md += " |\n";
    }
  }
  return md;
}

}  // namespace maras::core
