#include "faers/preprocess.h"

#include <algorithm>
#include <limits>
#include <string_view>

#include "faers/vocabulary.h"

namespace maras::faers {

Preprocessor::Preprocessor(PreprocessOptions options)
    : options_(std::move(options)) {
  for (const std::string& name : CuratedDrugNames()) {
    drug_dictionary_.AddCanonical(name);
  }
  for (const DrugAlias& alias : CuratedDrugAliases()) {
    // Aliases are pre-normalized uppercase; failure means alias ==
    // canonical which the curated table never contains.
    MARAS_IGNORE_STATUS(drug_dictionary_.AddAlias(alias.alias,
                                                  alias.canonical));
  }
}

std::string Preprocessor::CleanDrugName(
    const std::string& raw,
    std::unordered_map<std::string, std::string>* cache,
    PreprocessStats* stats) const {
  std::string normalized = text::NormalizeName(raw, options_.normalizer);
  if (auto it = cache->find(normalized); it != cache->end()) {
    return it->second;
  }
  std::string resolved = normalized;
  text::Dictionary::Match match =
      drug_dictionary_.Resolve(normalized, options_.max_edit_distance);
  switch (match.kind) {
    case text::Dictionary::MatchKind::kExact:
      resolved = match.canonical;
      break;
    case text::Dictionary::MatchKind::kAlias:
      resolved = match.canonical;
      ++stats->alias_resolutions;
      break;
    case text::Dictionary::MatchKind::kFuzzy:
      resolved = match.canonical;
      ++stats->fuzzy_corrections;
      break;
    case text::Dictionary::MatchKind::kNone:
      break;  // keep the normalized verbatim name as its own vocabulary entry
  }
  (*cache)[normalized] = resolved;
  return resolved;
}

maras::StatusOr<PreprocessResult> Preprocessor::Process(
    const QuarterDataset& dataset, IngestReport* report) const {
  auto result = Process(dataset);
  if (result.ok() && report != nullptr) {
    const PreprocessStats& stats = result->stats;
    auto note = [&](size_t count, const char* what) {
      if (count == 0) return;
      report->warnings.push_back(dataset.Label() + ": " +
                                 std::to_string(count) + " " + what);
    };
    note(stats.dropped_not_expedited, "reports dropped as non-expedited");
    note(stats.dropped_stale_version, "stale case versions dropped");
    note(stats.dropped_empty,
         "reports dropped with no drugs or no reactions after cleaning");
  }
  return result;
}

maras::StatusOr<PreprocessResult> Preprocessor::Process(
    const QuarterDataset& dataset) const {
  PreprocessResult result;
  result.stats.reports_in = dataset.reports.size();

  // Pass 1: select report versions. For each case id, remember the highest
  // version among reports passing the EXP filter.
  std::unordered_map<uint64_t, uint32_t> latest_version;
  for (const Report& report : dataset.reports) {
    if (options_.expedited_only && report.type != ReportType::kExpedited) {
      continue;
    }
    auto [it, inserted] =
        latest_version.emplace(report.case_id, report.case_version);
    if (!inserted && report.case_version > it->second) {
      it->second = report.case_version;
    }
  }

  // Memoizes normalized-name -> canonical resolution across the quarter.
  std::unordered_map<std::string, std::string> cache;
  // Memoizes raw mention -> item per domain, keyed by views into `dataset`,
  // so each distinct raw string is normalized and interned once however
  // often it is mentioned. The name cache above stays behind the memo: two
  // raw spellings of one name still count one correction, and items are
  // interned in first-mention order as before.
  using Memo = std::unordered_map<std::string_view, mining::ItemId>;
  Memo drug_memo;
  Memo adr_memo;
  // Item of `raw`, or kNoItem when the name cleans to nothing.
  constexpr mining::ItemId kNoItem =
      std::numeric_limits<mining::ItemId>::max();
  auto memoized = [&](Memo* memo, const std::string& raw,
                      mining::ItemDomain domain)
      -> maras::StatusOr<mining::ItemId> {
    if (auto it = memo->find(raw); it != memo->end()) return it->second;
    std::string name = domain == mining::ItemDomain::kDrug
                           ? CleanDrugName(raw, &cache, &result.stats)
                           : text::NormalizeName(raw, options_.normalizer);
    mining::ItemId id = kNoItem;
    if (!name.empty()) {
      MARAS_ASSIGN_OR_RETURN(id, result.items.Intern(name, domain));
    }
    memo->emplace(raw, id);
    return id;
  };

  for (const Report& report : dataset.reports) {
    if (options_.expedited_only && report.type != ReportType::kExpedited) {
      ++result.stats.dropped_not_expedited;
      continue;
    }
    if (auto it = latest_version.find(report.case_id);
        it != latest_version.end() && report.case_version < it->second) {
      ++result.stats.dropped_stale_version;
      continue;
    }
    mining::Itemset transaction;
    for (const std::string& raw : report.drugs) {
      MARAS_ASSIGN_OR_RETURN(
          mining::ItemId id,
          memoized(&drug_memo, raw, mining::ItemDomain::kDrug));
      if (id == kNoItem) continue;
      transaction.push_back(id);
      ++result.stats.drug_mentions;
    }
    size_t drug_items = transaction.size();
    for (const std::string& raw : report.reactions) {
      MARAS_ASSIGN_OR_RETURN(
          mining::ItemId id,
          memoized(&adr_memo, raw, mining::ItemDomain::kAdr));
      if (id == kNoItem) continue;
      transaction.push_back(id);
      ++result.stats.adr_mentions;
    }
    if (drug_items == 0 || transaction.size() == drug_items) {
      ++result.stats.dropped_empty;
      continue;
    }
    result.transactions.Add(std::move(transaction));
    result.primary_ids.push_back(report.primary_id());
    result.demographics.push_back(CaseDemographics{report.sex, report.age});
    ++result.stats.reports_kept;
  }

  result.stats.distinct_drugs =
      result.items.CountInDomain(mining::ItemDomain::kDrug);
  result.stats.distinct_adrs =
      result.items.CountInDomain(mining::ItemDomain::kAdr);
  return result;
}

}  // namespace maras::faers
