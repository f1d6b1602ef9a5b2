#ifndef MARAS_CORE_REPORT_GENERATOR_H_
#define MARAS_CORE_REPORT_GENERATOR_H_

#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/knowledge_base.h"
#include "core/multi_quarter.h"
#include "core/ranking.h"
#include "core/severity.h"

namespace maras::core {

// ---------------------------------------------------------------------------
// Quarterly surveillance report generation — the Markdown artifact a
// drug-safety evaluator circulates: top signals with triage columns,
// severe-and-undocumented alerts, and watchlist trends. Library-level so
// any front end (CLI example, scheduled job, service) renders the same
// report; `examples/surveillance_report` is a thin shell over this.
// ---------------------------------------------------------------------------

struct WatchlistEntry {
  std::string label;                    // e.g. "ASPIRIN + WARFARIN"
  std::vector<QuarterlySignalTrend> trend;
};

struct ReportInputs {
  std::string title = "MARAS quarterly surveillance report";
  // The analyzed (current) quarter.
  const faers::PreprocessResult* current = nullptr;
  const AnalysisResult* analysis = nullptr;
  // Ranked clusters (typically exclusiveness order).
  const std::vector<RankedMcac>* ranked = nullptr;
  const KnowledgeBase* knowledge_base = nullptr;
  // Optional quarter-over-quarter watchlist section.
  std::vector<WatchlistEntry> watchlist;
};

struct ReportOptions {
  size_t top_signals = 10;
  // Alerts require at least this severity AND no knowledge-base entry.
  Severity alert_severity = Severity::kSevere;
};

// Renders the Markdown report. Requires current/analysis/ranked/
// knowledge_base to be set; returns InvalidArgument otherwise.
maras::StatusOr<std::string> GenerateMarkdownReport(
    const ReportInputs& inputs, const ReportOptions& options = {});

}  // namespace maras::core

#endif  // MARAS_CORE_REPORT_GENERATOR_H_
