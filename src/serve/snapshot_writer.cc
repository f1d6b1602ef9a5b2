#include "serve/snapshot_writer.h"

#include <limits>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "serve/snapshot_format.h"
#include "serve/snapshot_index.h"
#include "util/binary_io.h"
#include "util/delimited.h"
#include "util/status.h"

namespace maras::serve {
namespace {

maras::Status FitsU32(uint64_t v, const char* what) {
  if (v > std::numeric_limits<uint32_t>::max()) {
    return maras::Status::InvalidArgument(
        std::string(what) + " overflows the 32-bit snapshot arena: " +
        std::to_string(v));
  }
  return maras::Status::OK();
}

// Writer-side hygiene: never emit a rule the reader's semantic validation
// would reject. Ids must be interned, itemsets strictly increasing, and
// every id's domain must match the side of the rule it sits on.
maras::Status ValidateItemset(const mining::Itemset& set,
                              mining::ItemDomain domain,
                              const mining::ItemDictionary& items,
                              const char* side) {
  uint64_t prev = 0;
  bool first = true;
  for (mining::ItemId id : set) {
    if (id >= items.size()) {
      return maras::Status::InvalidArgument(
          std::string(side) + " item id " + std::to_string(id) +
          " outside dictionary of " + std::to_string(items.size()));
    }
    if (!first && id <= prev) {
      return maras::Status::InvalidArgument(
          std::string(side) + " itemset not strictly increasing");
    }
    if (items.Domain(id) != domain) {
      return maras::Status::InvalidArgument(
          std::string(side) + " item '" + items.Name(id) +
          "' has the wrong domain");
    }
    prev = id;
    first = false;
  }
  return maras::Status::OK();
}

maras::Status ValidateRule(const core::DrugAdrRule& rule,
                           const mining::ItemDictionary& items) {
  if (rule.drugs.empty() || rule.adrs.empty()) {
    return maras::Status::InvalidArgument(
        "a drug-ADR rule needs a non-empty antecedent and consequent");
  }
  MARAS_RETURN_IF_ERROR(
      ValidateItemset(rule.drugs, mining::ItemDomain::kDrug, items, "drugs"));
  MARAS_RETURN_IF_ERROR(
      ValidateItemset(rule.adrs, mining::ItemDomain::kAdr, items, "adrs"));
  return maras::Status::OK();
}

// Emits one 56-byte rule record, appending its itemsets to the id pool.
void EncodeRuleRecord(const core::DrugAdrRule& rule, BinaryWriter* rules,
                      BinaryWriter* id_pool, uint64_t* id_cursor) {
  rules->U32(static_cast<uint32_t>(*id_cursor));
  rules->U32(static_cast<uint32_t>(rule.drugs.size()));
  for (mining::ItemId id : rule.drugs) id_pool->U32(id);
  *id_cursor += rule.drugs.size();
  rules->U32(static_cast<uint32_t>(*id_cursor));
  rules->U32(static_cast<uint32_t>(rule.adrs.size()));
  for (mining::ItemId id : rule.adrs) id_pool->U32(id);
  *id_cursor += rule.adrs.size();
  rules->U64(rule.support);
  rules->U64(rule.antecedent_support);
  rules->U64(rule.consequent_support);
  rules->F64(rule.confidence);
  rules->F64(rule.lift);
}

void EncodePostingSide(const std::vector<std::vector<uint32_t>>& lists,
                       BinaryWriter* side, BinaryWriter* pool,
                       uint64_t* pool_cursor) {
  for (const std::vector<uint32_t>& list : lists) {
    side->U32(static_cast<uint32_t>(*pool_cursor));
    side->U32(static_cast<uint32_t>(list.size()));
    for (uint32_t signal : list) pool->U32(signal);
    *pool_cursor += list.size();
  }
}

}  // namespace

maras::StatusOr<std::string> EncodeSignalSnapshot(
    const SnapshotInputs& inputs) {
  if (inputs.items == nullptr || inputs.signals == nullptr) {
    return maras::Status::InvalidArgument(
        "snapshot inputs need an item dictionary and a signal list");
  }
  const mining::ItemDictionary& items = *inputs.items;
  const std::vector<core::RankedMcac>& signals = *inputs.signals;

  const bool have_db =
      inputs.db != nullptr && inputs.primary_ids != nullptr;
  const bool have_precomputed = inputs.report_ids != nullptr;
  if (have_db == have_precomputed) {
    return maras::Status::InvalidArgument(
        "snapshot inputs need exactly one report-id source: db+primary_ids "
        "or precomputed per-signal lists");
  }
  if (have_precomputed && inputs.report_ids->size() != signals.size()) {
    return maras::Status::InvalidArgument(
        "precomputed report-id lists (" +
        std::to_string(inputs.report_ids->size()) + ") do not match signals (" +
        std::to_string(signals.size()) + ")");
  }

  MARAS_RETURN_IF_ERROR(FitsU32(items.size(), "item count"));
  MARAS_RETURN_IF_ERROR(FitsU32(signals.size(), "signal count"));

  std::vector<std::vector<uint64_t>> computed;
  if (have_db) {
    std::vector<const core::DrugAdrRule*> targets(signals.size());
    for (size_t s = 0; s < signals.size(); ++s) {
      targets[s] = &signals[s].mcac.target;
    }
    computed =
        core::SupportingReportLists(*inputs.db, *inputs.primary_ids, targets);
  }
  const std::vector<std::vector<uint64_t>>& report_ids =
      have_db ? computed : *inputs.report_ids;

  // --- kStrings + kItems --------------------------------------------------
  std::string strings;
  BinaryWriter items_w;
  for (size_t i = 0; i < items.size(); ++i) {
    const mining::ItemId id = static_cast<mining::ItemId>(i);
    const std::string& name = items.Name(id);
    MARAS_RETURN_IF_ERROR(FitsU32(strings.size(), "string pool offset"));
    MARAS_RETURN_IF_ERROR(FitsU32(name.size(), "item name length"));
    items_w.U32(static_cast<uint32_t>(strings.size()));
    items_w.U32(static_cast<uint32_t>(name.size()));
    items_w.U32(static_cast<uint32_t>(items.Domain(id)));
    strings.append(name);
  }
  MARAS_RETURN_IF_ERROR(FitsU32(strings.size(), "string pool size"));

  // --- kRules / kSignals / kLevels / kItemIdPool / kReportIdPool ----------
  // Rules flatten in the one canonical order: each signal's target first,
  // then its levels front to back, rules within a level in stored order.
  BinaryWriter rules_w;
  BinaryWriter signals_w;
  BinaryWriter levels_w;
  BinaryWriter id_pool_w;
  BinaryWriter report_pool_w;
  uint64_t rule_cursor = 0;
  uint64_t level_cursor = 0;
  uint64_t id_cursor = 0;
  uint64_t report_cursor = 0;
  for (size_t s = 0; s < signals.size(); ++s) {
    const core::Mcac& mcac = signals[s].mcac;
    MARAS_RETURN_IF_ERROR_CTX(ValidateRule(mcac.target, items),
                              "signal " + std::to_string(s));
    const uint64_t target_rule = rule_cursor;
    EncodeRuleRecord(mcac.target, &rules_w, &id_pool_w, &id_cursor);
    ++rule_cursor;

    const uint64_t first_level = level_cursor;
    for (const std::vector<core::DrugAdrRule>& level : mcac.levels) {
      levels_w.U32(static_cast<uint32_t>(rule_cursor));
      levels_w.U32(static_cast<uint32_t>(level.size()));
      for (const core::DrugAdrRule& rule : level) {
        MARAS_RETURN_IF_ERROR_CTX(
            ValidateRule(rule, items),
            "signal " + std::to_string(s) + " context");
        EncodeRuleRecord(rule, &rules_w, &id_pool_w, &id_cursor);
        ++rule_cursor;
      }
    }
    level_cursor += mcac.levels.size();

    const std::vector<uint64_t>& reports = report_ids[s];
    signals_w.U32(static_cast<uint32_t>(target_rule));
    signals_w.U32(static_cast<uint32_t>(first_level));
    signals_w.U32(static_cast<uint32_t>(mcac.levels.size()));
    signals_w.U32(static_cast<uint32_t>(report_cursor));
    signals_w.U32(static_cast<uint32_t>(reports.size()));
    signals_w.U32(0);
    signals_w.F64(signals[s].score);
    for (uint64_t id : reports) report_pool_w.U64(id);
    report_cursor += reports.size();

    MARAS_RETURN_IF_ERROR(FitsU32(rule_cursor, "rule count"));
    MARAS_RETURN_IF_ERROR(FitsU32(level_cursor, "level count"));
    MARAS_RETURN_IF_ERROR(FitsU32(id_cursor, "item-id pool size"));
    MARAS_RETURN_IF_ERROR(FitsU32(report_cursor, "report-id pool size"));
  }
  // Every id is in report_pool_w now: free the derived lists before the
  // index and the image are built, the encode's largest allocations.
  computed = {};

  // --- Postings and kLatticeNav / kLatticeEdgePool -----------------------
  // Derived from the signal targets alone (serve/snapshot_index.h), the
  // derivation the reader repeats to validate them. Edge-pool packing is
  // canonical: per signal, gen list then spec list, in signal order.
  std::vector<TargetIds> targets(signals.size());
  for (size_t s = 0; s < signals.size(); ++s) {
    targets[s] = {signals[s].mcac.target.drugs, signals[s].mcac.target.adrs};
  }
  const SnapshotIndex index = DeriveSnapshotIndex(targets, items.size());
  BinaryWriter drug_postings_w;
  BinaryWriter adr_postings_w;
  BinaryWriter posting_pool_w;
  uint64_t posting_cursor = 0;
  EncodePostingSide(index.drug_postings, &drug_postings_w, &posting_pool_w,
                    &posting_cursor);
  EncodePostingSide(index.adr_postings, &adr_postings_w, &posting_pool_w,
                    &posting_cursor);
  MARAS_RETURN_IF_ERROR(FitsU32(posting_cursor, "posting pool size"));

  BinaryWriter lattice_nav_w;
  BinaryWriter lattice_pool_w;
  uint64_t lattice_edge_cursor = 0;
  for (size_t s = 0; s < signals.size(); ++s) {
    for (const std::vector<uint32_t>* list :
         {&index.generalizations[s], &index.specializations[s]}) {
      lattice_nav_w.U32(static_cast<uint32_t>(lattice_edge_cursor));
      lattice_nav_w.U32(static_cast<uint32_t>(list->size()));
      for (uint32_t t : *list) lattice_pool_w.U32(t);
      lattice_edge_cursor += list->size();
    }
  }
  MARAS_RETURN_IF_ERROR(
      FitsU32(lattice_edge_cursor, "lattice edge pool size"));

  // --- kMeta --------------------------------------------------------------
  BinaryWriter meta_w;
  meta_w.U32(static_cast<uint32_t>(signals.size()));
  meta_w.U32(static_cast<uint32_t>(items.size()));
  meta_w.U32(static_cast<uint32_t>(rule_cursor));
  meta_w.U32(static_cast<uint32_t>(level_cursor));
  meta_w.U32(static_cast<uint32_t>(id_cursor));
  meta_w.U32(static_cast<uint32_t>(posting_cursor));
  meta_w.U32(static_cast<uint32_t>(report_cursor));
  meta_w.U32(static_cast<uint32_t>(strings.size()));
  meta_w.U64(inputs.stats.total_rules);
  meta_w.U64(inputs.stats.filtered_rules);
  meta_w.U64(inputs.stats.closed_mixed);
  meta_w.U64(inputs.stats.mcac_count);
  meta_w.U32(static_cast<uint32_t>(signals.size()));
  meta_w.U32(static_cast<uint32_t>(lattice_edge_cursor));

  // --- Assemble: header, table, payloads in kSectionOrder -----------------
  std::string payloads[kSectionCount] = {
      meta_w.Take(),          std::move(strings),
      items_w.Take(),         rules_w.Take(),
      signals_w.Take(),       levels_w.Take(),
      id_pool_w.Take(),       drug_postings_w.Take(),
      adr_postings_w.Take(),  posting_pool_w.Take(),
      report_pool_w.Take(),   lattice_nav_w.Take(),
      lattice_pool_w.Take(),
  };
  uint64_t offset =
      kFileHeaderBytes + uint64_t{kSectionCount} * kSectionEntryBytes;
  BinaryWriter table_w;
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    MARAS_RETURN_IF_ERROR(FitsU32(offset, "section offset"));
    MARAS_RETURN_IF_ERROR(FitsU32(payloads[i].size(), "section size"));
    table_w.U32(static_cast<uint32_t>(kSectionOrder[i]));
    table_w.U32(static_cast<uint32_t>(offset));
    table_w.U32(static_cast<uint32_t>(payloads[i].size()));
    table_w.U32(0);
    table_w.U64(core::Fnv1a64(payloads[i]));
    offset += payloads[i].size();
  }
  MARAS_RETURN_IF_ERROR(FitsU32(offset, "snapshot size"));

  BinaryWriter header_w;
  header_w.U32(kSnapshotMagic);
  header_w.U32(kSnapshotVersion);
  header_w.U32(kSectionCount);
  header_w.U32(0);
  header_w.U64(core::Fnv1a64(table_w.bytes()));

  std::string out;
  out.reserve(static_cast<size_t>(offset));
  out += header_w.bytes();
  out += table_w.bytes();
  for (std::string& payload : payloads) out += payload;
  return out;
}

maras::Status WriteSnapshotFile(const std::string& path,
                                const SnapshotInputs& inputs) {
  MARAS_ASSIGN_OR_RETURN(std::string bytes, EncodeSignalSnapshot(inputs));
  MARAS_RETURN_IF_ERROR_CTX(maras::AtomicWriteStringToFile(path, bytes),
                            "publishing snapshot " + path);
  return maras::Status::OK();
}

}  // namespace maras::serve
