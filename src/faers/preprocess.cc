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
    std::string_view raw,
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
  // Item of each raw name per domain, indexed by its id in `dataset.names`,
  // so each distinct raw name is cleaned and interned once however often it
  // is mentioned. The name cache above stays behind this memo: two raw
  // spellings of one name still count one correction. A name is resolved at
  // its first mention in a report that passes the type and version filters,
  // so items follow that order and a name seen only in non-expedited or
  // stale reports never becomes an item.
  constexpr mining::ItemId kUnresolved =
      std::numeric_limits<mining::ItemId>::max();
  constexpr mining::ItemId kNoItem = kUnresolved - 1;  // cleans to nothing
  std::vector<mining::ItemId> drug_items(dataset.names.size(), kUnresolved);
  std::vector<mining::ItemId> adr_items(dataset.names.size(), kUnresolved);
  // Appends the items of `raw_ids` to `transaction`.
  auto resolve = [&](const std::vector<NameId>& raw_ids,
                     std::vector<mining::ItemId>* items,
                     mining::ItemDomain domain,
                     mining::Itemset* transaction) -> maras::Status {
    for (NameId raw : raw_ids) {
      mining::ItemId& item = (*items)[raw];
      if (item == kUnresolved) {
        const std::string_view text = dataset.Name(raw);
        const std::string name =
            domain == mining::ItemDomain::kDrug
                ? CleanDrugName(text, &cache, &result.stats)
                : text::NormalizeName(text, options_.normalizer);
        item = kNoItem;
        if (!name.empty()) {
          MARAS_ASSIGN_OR_RETURN(item, result.items.Intern(name, domain));
        }
      }
      if (item != kNoItem) transaction->push_back(item);
    }
    return maras::Status::OK();
  };

  std::vector<mining::Itemset> transactions;
  transactions.reserve(dataset.reports.size());
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
    transaction.reserve(report.drugs.size() + report.reactions.size());
    MARAS_RETURN_IF_ERROR(resolve(report.drugs, &drug_items,
                                  mining::ItemDomain::kDrug, &transaction));
    const size_t drug_count = transaction.size();
    MARAS_RETURN_IF_ERROR(resolve(report.reactions, &adr_items,
                                  mining::ItemDomain::kAdr, &transaction));
    result.stats.drug_mentions += drug_count;
    result.stats.adr_mentions += transaction.size() - drug_count;
    if (drug_count == 0 || transaction.size() == drug_count) {
      ++result.stats.dropped_empty;
      continue;
    }
    transactions.push_back(std::move(transaction));
    result.primary_ids.push_back(report.primary_id());
    ++result.stats.reports_kept;
  }
  result.transactions =
      mining::TransactionDatabase::Build(std::move(transactions));

  result.stats.distinct_drugs =
      result.items.CountInDomain(mining::ItemDomain::kDrug);
  result.stats.distinct_adrs =
      result.items.CountInDomain(mining::ItemDomain::kAdr);
  return result;
}

}  // namespace maras::faers
