#include "serve/snapshot_reader.h"

#include <algorithm>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "serve/snapshot_index.h"
#include "util/status.h"

namespace maras::serve {
namespace {

constexpr size_t SectionIndex(SectionId id) {
  return static_cast<size_t>(id) - 1;
}

maras::Status CheckIndex(uint32_t index, uint32_t count, const char* what) {
  if (index >= count) {
    return maras::Status::InvalidArgument(
        std::string(what) + " index " + std::to_string(index) +
        " out of range [0, " + std::to_string(count) + ")");
  }
  return maras::Status::OK();
}

struct RuleRec {
  uint32_t drugs_off = 0;
  uint32_t drugs_count = 0;
  uint32_t adrs_off = 0;
  uint32_t adrs_count = 0;
  uint64_t support = 0;
  uint64_t antecedent_support = 0;
  uint64_t consequent_support = 0;
  double confidence = 0.0;
  double lift = 0.0;
};

maras::Status ReadRuleRec(const BoundedView& rules, uint32_t index,
                          RuleRec* out) {
  const size_t base = size_t{index} * kRuleRecordBytes;
  MARAS_RETURN_IF_ERROR(rules.U32At(base + kRuleDrugsOffset, &out->drugs_off));
  MARAS_RETURN_IF_ERROR(rules.U32At(base + kRuleDrugsCount, &out->drugs_count));
  MARAS_RETURN_IF_ERROR(rules.U32At(base + kRuleAdrsOffset, &out->adrs_off));
  MARAS_RETURN_IF_ERROR(rules.U32At(base + kRuleAdrsCount, &out->adrs_count));
  MARAS_RETURN_IF_ERROR(rules.U64At(base + kRuleSupport, &out->support));
  MARAS_RETURN_IF_ERROR(
      rules.U64At(base + kRuleAntecedentSupport, &out->antecedent_support));
  MARAS_RETURN_IF_ERROR(
      rules.U64At(base + kRuleConsequentSupport, &out->consequent_support));
  MARAS_RETURN_IF_ERROR(rules.F64At(base + kRuleConfidence, &out->confidence));
  MARAS_RETURN_IF_ERROR(rules.F64At(base + kRuleLift, &out->lift));
  return maras::Status::OK();
}

maras::Status ReadSignalRec(const BoundedView& signals, uint32_t index,
                            SignalRecord* out) {
  const size_t base = size_t{index} * kSignalRecordBytes;
  MARAS_RETURN_IF_ERROR(
      signals.U32At(base + kSignalTargetRule, &out->target_rule));
  MARAS_RETURN_IF_ERROR(
      signals.U32At(base + kSignalFirstLevel, &out->first_level));
  MARAS_RETURN_IF_ERROR(
      signals.U32At(base + kSignalLevelCount, &out->level_count));
  MARAS_RETURN_IF_ERROR(
      signals.U32At(base + kSignalReportOffset, &out->report_offset));
  MARAS_RETURN_IF_ERROR(
      signals.U32At(base + kSignalReportCount, &out->report_count));
  MARAS_RETURN_IF_ERROR(signals.F64At(base + kSignalScore, &out->score));
  return maras::Status::OK();
}

maras::Status ReadLevelRec(const BoundedView& levels, uint32_t index,
                           LevelRecord* out) {
  const size_t base = size_t{index} * kLevelRecordBytes;
  MARAS_RETURN_IF_ERROR(levels.U32At(base + kLevelFirstRule, &out->first_rule));
  MARAS_RETURN_IF_ERROR(levels.U32At(base + kLevelRuleCount, &out->rule_count));
  return maras::Status::OK();
}

struct ItemRec {
  uint32_t name_off = 0;
  uint32_t name_len = 0;
  uint32_t domain = 0;
};

maras::Status ReadItemRec(const BoundedView& items, uint32_t index,
                          ItemRec* out) {
  const size_t base = size_t{index} * kItemRecordBytes;
  MARAS_RETURN_IF_ERROR(items.U32At(base + kItemNameOffset, &out->name_off));
  MARAS_RETURN_IF_ERROR(items.U32At(base + kItemNameLength, &out->name_len));
  MARAS_RETURN_IF_ERROR(items.U32At(base + kItemDomain, &out->domain));
  return maras::Status::OK();
}

struct PostingRec {
  uint32_t offset = 0;
  uint32_t count = 0;
};

maras::Status ReadPostingRec(const BoundedView& postings, uint32_t index,
                             PostingRec* out) {
  const size_t base = size_t{index} * kPostingRecordBytes;
  MARAS_RETURN_IF_ERROR(postings.U32At(base + kPostingOffset, &out->offset));
  MARAS_RETURN_IF_ERROR(postings.U32At(base + kPostingCount, &out->count));
  return maras::Status::OK();
}

struct LatticeNavRec {
  uint32_t gen_off = 0;
  uint32_t gen_count = 0;
  uint32_t spec_off = 0;
  uint32_t spec_count = 0;
};

maras::Status ReadLatticeNavRec(const BoundedView& nav, uint32_t index,
                                LatticeNavRec* out) {
  const size_t base = size_t{index} * kLatticeNavRecordBytes;
  MARAS_RETURN_IF_ERROR(nav.U32At(base + kLatticeNavGenOffset, &out->gen_off));
  MARAS_RETURN_IF_ERROR(nav.U32At(base + kLatticeNavGenCount, &out->gen_count));
  MARAS_RETURN_IF_ERROR(
      nav.U32At(base + kLatticeNavSpecOffset, &out->spec_off));
  MARAS_RETURN_IF_ERROR(
      nav.U32At(base + kLatticeNavSpecCount, &out->spec_count));
  return maras::Status::OK();
}

// Appends the `count` ids at element `off` of the item-id pool to `out`.
// It reserves exactly what it appends, so a caller appending many times
// reserves the total first.
maras::Status AppendItemIds(const BoundedView& pool, uint32_t off,
                            uint32_t count, std::vector<uint32_t>* out) {
  out->reserve(out->size() + count);
  for (uint32_t j = 0; j < count; ++j) {
    uint32_t id = 0;
    MARAS_RETURN_IF_ERROR(
        pool.U32At((uint64_t{off} + j) * kItemIdPoolElemBytes, &id));
    out->push_back(id);
  }
  return maras::Status::OK();
}

// Checks one stored posting or lattice list against its derivation from
// the targets: it must start where the previous list of its pool ended and
// hold exactly `want`. `what` + `owner` name the list in errors.
maras::Status CheckDerivedList(const BoundedView& pool, uint32_t off,
                               uint32_t count,
                               const std::vector<uint32_t>& want,
                               const char* what, uint32_t owner,
                               uint64_t* cursor) {
  static_assert(kPostingPoolElemBytes == kLatticeEdgePoolElemBytes);
  const auto where = [&] { return what + std::to_string(owner); };
  if (off != *cursor) {
    return maras::Status::Corruption(
        where() + ": offset " + std::to_string(off) +
        " breaks canonical packing (expected " + std::to_string(*cursor) +
        ")");
  }
  if (count != want.size()) {
    return maras::Status::Corruption(
        where() + ": " + std::to_string(count) +
        " entries, derivation from targets yields " +
        std::to_string(want.size()));
  }
  for (uint32_t j = 0; j < count; ++j) {
    uint32_t entry = 0;
    MARAS_RETURN_IF_ERROR(
        pool.U32At((uint64_t{off} + j) * kPostingPoolElemBytes, &entry));
    if (entry != want[j]) {
      return maras::Status::Corruption(
          where() + " entry " + std::to_string(j) +
          " disagrees with derivation from targets");
    }
  }
  *cursor += count;
  return maras::Status::OK();
}

}  // namespace

maras::StatusOr<SignalSnapshot> SignalSnapshot::OpenFile(
    const std::string& path) {
  MARAS_ASSIGN_OR_RETURN(MappedFile mapped, MappedFile::Open(path));
  SignalSnapshot snapshot;
  snapshot.mapped_ = std::move(mapped);
  MARAS_RETURN_IF_ERROR_CTX(snapshot.Init(snapshot.mapped_.view()), path);
  return snapshot;
}

maras::StatusOr<SignalSnapshot> SignalSnapshot::FromBytes(std::string bytes) {
  SignalSnapshot snapshot;
  snapshot.owned_ = std::make_unique<std::string>(std::move(bytes));
  MARAS_RETURN_IF_ERROR(snapshot.Init(BoundedView::Of(*snapshot.owned_)));
  return snapshot;
}

maras::StatusOr<SignalSnapshot> SignalSnapshot::FromView(
    std::string_view bytes) {
  SignalSnapshot snapshot;
  MARAS_RETURN_IF_ERROR(snapshot.Init(BoundedView::Of(bytes)));
  return snapshot;
}

maras::Status SignalSnapshot::Init(BoundedView file) {
  // --- Framing: header ----------------------------------------------------
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t section_count = 0;
  uint32_t reserved = 0;
  uint64_t table_checksum = 0;
  MARAS_RETURN_IF_ERROR_CTX(file.U32At(0, &magic), "snapshot header");
  if (magic != kSnapshotMagic) {
    return maras::Status::Corruption("bad snapshot magic " +
                                     std::to_string(magic));
  }
  MARAS_RETURN_IF_ERROR(file.U32At(4, &version));
  if (version != kSnapshotVersion) {
    return maras::Status::Corruption("unsupported snapshot version " +
                                     std::to_string(version));
  }
  MARAS_RETURN_IF_ERROR(file.U32At(8, &section_count));
  if (section_count != kSectionCount) {
    return maras::Status::Corruption("forged section count " +
                                     std::to_string(section_count));
  }
  MARAS_RETURN_IF_ERROR(file.U32At(12, &reserved));
  if (reserved != 0) {
    return maras::Status::Corruption("non-zero header reserved field");
  }
  MARAS_RETURN_IF_ERROR(file.U64At(16, &table_checksum));

  // --- Framing: section table --------------------------------------------
  const size_t table_bytes = size_t{kSectionCount} * kSectionEntryBytes;
  std::string_view table;
  MARAS_RETURN_IF_ERROR_CTX(
      file.BytesAt(kFileHeaderBytes, table_bytes, &table),
      "section table");
  if (core::Fnv1a64(table) != table_checksum) {
    return maras::Status::Corruption("section table checksum mismatch");
  }
  uint64_t cursor = kFileHeaderBytes + table_bytes;
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    const size_t base = kFileHeaderBytes + size_t{i} * kSectionEntryBytes;
    uint32_t id = 0;
    uint32_t offset = 0;
    uint32_t size = 0;
    uint32_t entry_reserved = 0;
    uint64_t checksum = 0;
    MARAS_RETURN_IF_ERROR(file.U32At(base + 0, &id));
    MARAS_RETURN_IF_ERROR(file.U32At(base + 4, &offset));
    MARAS_RETURN_IF_ERROR(file.U32At(base + 8, &size));
    MARAS_RETURN_IF_ERROR(file.U32At(base + 12, &entry_reserved));
    MARAS_RETURN_IF_ERROR(file.U64At(base + 16, &checksum));
    const std::string where = "section " + std::to_string(id);
    if (id != static_cast<uint32_t>(kSectionOrder[i])) {
      return maras::Status::Corruption(
          "section table order forged: entry " + std::to_string(i) +
          " has id " + std::to_string(id));
    }
    if (entry_reserved != 0) {
      return maras::Status::Corruption(where + ": non-zero reserved field");
    }
    // Sections must tile the file exactly: offset == end of the previous
    // section. One check rejects gaps, overlaps and forged offsets alike.
    if (offset != cursor) {
      return maras::Status::Corruption(
          where + ": offset " + std::to_string(offset) +
          " breaks contiguous layout (expected " + std::to_string(cursor) +
          ")");
    }
    std::string_view payload;
    MARAS_RETURN_IF_ERROR_CTX(file.BytesAt(offset, size, &payload),
                              where + " payload");
    if (core::Fnv1a64(payload) != checksum) {
      return maras::Status::Corruption(where + ": payload checksum mismatch");
    }
    MARAS_RETURN_IF_ERROR(file.Slice(offset, size, &sections_[i]));
    cursor += size;
  }
  if (cursor != file.size()) {
    return maras::Status::Corruption(
        std::to_string(file.size() - cursor) +
        " trailing bytes after the last section");
  }

  // --- Geometry: meta counts vs section sizes -----------------------------
  const BoundedView& meta = sections_[SectionIndex(SectionId::kMeta)];
  if (meta.size() != kMetaBytes) {
    return maras::Status::Corruption("meta section has " +
                                     std::to_string(meta.size()) + " bytes");
  }
  MARAS_RETURN_IF_ERROR(meta.U32At(kMetaSignalCount, &counts_.signals));
  MARAS_RETURN_IF_ERROR(meta.U32At(kMetaItemCount, &counts_.items));
  MARAS_RETURN_IF_ERROR(meta.U32At(kMetaRuleCount, &counts_.rules));
  MARAS_RETURN_IF_ERROR(meta.U32At(kMetaLevelCount, &counts_.levels));
  MARAS_RETURN_IF_ERROR(meta.U32At(kMetaItemIdCount, &counts_.item_ids));
  MARAS_RETURN_IF_ERROR(meta.U32At(kMetaPostingCount, &counts_.postings));
  MARAS_RETURN_IF_ERROR(meta.U32At(kMetaReportIdCount, &counts_.report_ids));
  MARAS_RETURN_IF_ERROR(meta.U32At(kMetaStringBytes, &counts_.string_bytes));
  MARAS_RETURN_IF_ERROR(
      meta.U64At(kMetaStatsTotalRules, &stats_.total_rules));
  MARAS_RETURN_IF_ERROR(
      meta.U64At(kMetaStatsFilteredRules, &stats_.filtered_rules));
  MARAS_RETURN_IF_ERROR(
      meta.U64At(kMetaStatsClosedMixed, &stats_.closed_mixed));
  MARAS_RETURN_IF_ERROR(meta.U64At(kMetaStatsMcacCount, &stats_.mcac_count));
  MARAS_RETURN_IF_ERROR(meta.U32At(kMetaLatticeNavCount, &counts_.lattice_nav));
  MARAS_RETURN_IF_ERROR(
      meta.U32At(kMetaLatticeEdgeCount, &counts_.lattice_edges));
  // Every writer emits lattice navigation for every signal.
  if (counts_.lattice_nav != counts_.signals) {
    return maras::Status::Corruption(
        "lattice nav count " + std::to_string(counts_.lattice_nav) +
        " does not cover all " + std::to_string(counts_.signals) +
        " signals");
  }

  const auto check_geometry = [this](SectionId id, uint64_t count,
                                     size_t elem_bytes,
                                     const char* what) -> maras::Status {
    const BoundedView& section = sections_[SectionIndex(id)];
    if (section.size() != count * elem_bytes) {
      return maras::Status::Corruption(
          std::string(what) + " section holds " +
          std::to_string(section.size()) + " bytes, meta promises " +
          std::to_string(count) + " records of " +
          std::to_string(elem_bytes));
    }
    return maras::Status::OK();
  };
  MARAS_RETURN_IF_ERROR(
      check_geometry(SectionId::kStrings, counts_.string_bytes, 1, "string"));
  MARAS_RETURN_IF_ERROR(check_geometry(SectionId::kItems, counts_.items,
                                       kItemRecordBytes, "item"));
  MARAS_RETURN_IF_ERROR(check_geometry(SectionId::kRules, counts_.rules,
                                       kRuleRecordBytes, "rule"));
  MARAS_RETURN_IF_ERROR(check_geometry(SectionId::kSignals, counts_.signals,
                                       kSignalRecordBytes, "signal"));
  MARAS_RETURN_IF_ERROR(check_geometry(SectionId::kLevels, counts_.levels,
                                       kLevelRecordBytes, "level"));
  MARAS_RETURN_IF_ERROR(check_geometry(SectionId::kItemIdPool,
                                       counts_.item_ids, kItemIdPoolElemBytes,
                                       "item-id pool"));
  MARAS_RETURN_IF_ERROR(check_geometry(SectionId::kDrugPostings, counts_.items,
                                       kPostingRecordBytes, "drug posting"));
  MARAS_RETURN_IF_ERROR(check_geometry(SectionId::kAdrPostings, counts_.items,
                                       kPostingRecordBytes, "ADR posting"));
  MARAS_RETURN_IF_ERROR(check_geometry(SectionId::kPostingPool,
                                       counts_.postings, kPostingPoolElemBytes,
                                       "posting pool"));
  MARAS_RETURN_IF_ERROR(check_geometry(SectionId::kReportIdPool,
                                       counts_.report_ids,
                                       kReportIdPoolElemBytes,
                                       "report-id pool"));
  MARAS_RETURN_IF_ERROR(check_geometry(SectionId::kLatticeNav,
                                       counts_.lattice_nav,
                                       kLatticeNavRecordBytes, "lattice nav"));
  MARAS_RETURN_IF_ERROR(check_geometry(SectionId::kLatticeEdgePool,
                                       counts_.lattice_edges,
                                       kLatticeEdgePoolElemBytes,
                                       "lattice edge pool"));

  // --- Semantics ----------------------------------------------------------
  MARAS_RETURN_IF_ERROR(ValidateItems());
  MARAS_RETURN_IF_ERROR(ValidateRules());
  MARAS_RETURN_IF_ERROR(ValidateSignals());
  MARAS_RETURN_IF_ERROR(ValidateIndex());
  return maras::Status::OK();
}

maras::Status SignalSnapshot::ValidateItems() const {
  const BoundedView& items = sections_[SectionIndex(SectionId::kItems)];
  const BoundedView& strings = sections_[SectionIndex(SectionId::kStrings)];
  std::unordered_set<std::string_view> seen;
  seen.reserve(counts_.items);
  uint64_t name_cursor = 0;
  for (uint32_t i = 0; i < counts_.items; ++i) {
    ItemRec rec;
    MARAS_RETURN_IF_ERROR(ReadItemRec(items, i, &rec));
    // Names must tile the string pool in item order — the writer's one
    // canonical packing.
    if (rec.name_off != name_cursor) {
      return maras::Status::Corruption(
          "item " + std::to_string(i) + " name offset " +
          std::to_string(rec.name_off) + " breaks canonical string packing");
    }
    name_cursor += rec.name_len;
    std::string_view name;
    MARAS_RETURN_IF_ERROR_CTX(
        strings.BytesAt(rec.name_off, rec.name_len, &name),
        "item " + std::to_string(i) + " name");
    if (!seen.insert(name).second) {
      return maras::Status::Corruption("duplicate item name at item " +
                                       std::to_string(i));
    }
    if (rec.domain != static_cast<uint32_t>(mining::ItemDomain::kDrug) &&
        rec.domain != static_cast<uint32_t>(mining::ItemDomain::kAdr)) {
      return maras::Status::Corruption("item " + std::to_string(i) +
                                       " has forged domain " +
                                       std::to_string(rec.domain));
    }
  }
  if (name_cursor != counts_.string_bytes) {
    return maras::Status::Corruption(
        "string pool holds " + std::to_string(counts_.string_bytes) +
        " bytes but item names cover " + std::to_string(name_cursor));
  }
  return maras::Status::OK();
}

maras::Status SignalSnapshot::ValidateRules() const {
  const BoundedView& rules = sections_[SectionIndex(SectionId::kRules)];
  const BoundedView& items = sections_[SectionIndex(SectionId::kItems)];
  const BoundedView& pool = sections_[SectionIndex(SectionId::kItemIdPool)];
  uint64_t pool_cursor = 0;
  const auto check_itemset = [&](uint32_t rule, uint32_t off, uint32_t count,
                                 uint32_t domain,
                                 const char* side) -> maras::Status {
    const std::string where =
        "rule " + std::to_string(rule) + " " + std::string(side);
    if (count == 0) {
      return maras::Status::Corruption(where + " itemset is empty");
    }
    if (off != pool_cursor) {
      return maras::Status::Corruption(
          where + " pool offset " + std::to_string(off) +
          " breaks canonical id-pool packing");
    }
    uint32_t prev = 0;
    for (uint32_t j = 0; j < count; ++j) {
      uint32_t id = 0;
      MARAS_RETURN_IF_ERROR(
          pool.U32At((uint64_t{off} + j) * kItemIdPoolElemBytes, &id));
      if (id >= counts_.items) {
        return maras::Status::Corruption(where + " references item " +
                                         std::to_string(id) + " of " +
                                         std::to_string(counts_.items));
      }
      if (j > 0 && id <= prev) {
        return maras::Status::Corruption(where +
                                         " itemset not strictly increasing");
      }
      uint32_t item_domain = 0;
      MARAS_RETURN_IF_ERROR(items.U32At(
          size_t{id} * kItemRecordBytes + kItemDomain, &item_domain));
      if (item_domain != domain) {
        return maras::Status::Corruption(where + " item " +
                                         std::to_string(id) +
                                         " is in the wrong domain");
      }
      prev = id;
    }
    pool_cursor += count;
    return maras::Status::OK();
  };
  for (uint32_t r = 0; r < counts_.rules; ++r) {
    RuleRec rec;
    MARAS_RETURN_IF_ERROR(ReadRuleRec(rules, r, &rec));
    MARAS_RETURN_IF_ERROR(check_itemset(
        r, rec.drugs_off, rec.drugs_count,
        static_cast<uint32_t>(mining::ItemDomain::kDrug), "drugs"));
    MARAS_RETURN_IF_ERROR(check_itemset(
        r, rec.adrs_off, rec.adrs_count,
        static_cast<uint32_t>(mining::ItemDomain::kAdr), "adrs"));
  }
  if (pool_cursor != counts_.item_ids) {
    return maras::Status::Corruption(
        "item-id pool holds " + std::to_string(counts_.item_ids) +
        " ids but rule itemsets cover " + std::to_string(pool_cursor));
  }
  return maras::Status::OK();
}

maras::Status SignalSnapshot::ValidateSignals() const {
  const BoundedView& signals = sections_[SectionIndex(SectionId::kSignals)];
  const BoundedView& levels = sections_[SectionIndex(SectionId::kLevels)];
  uint64_t rule_cursor = 0;
  uint64_t level_cursor = 0;
  uint64_t report_cursor = 0;
  for (uint32_t s = 0; s < counts_.signals; ++s) {
    const std::string where = "signal " + std::to_string(s);
    SignalRecord rec;
    MARAS_RETURN_IF_ERROR(ReadSignalRec(signals, s, &rec));
    uint32_t reserved = 0;
    MARAS_RETURN_IF_ERROR(signals.U32At(
        size_t{s} * kSignalRecordBytes + kSignalReportCount + 4, &reserved));
    if (reserved != 0) {
      return maras::Status::Corruption(where + ": non-zero reserved field");
    }
    // The flattened rule/level/report arrays are tiled by signals in rank
    // order; every index field must continue exactly where the previous
    // signal stopped.
    if (rec.target_rule != rule_cursor) {
      return maras::Status::Corruption(
          where + ": target rule " + std::to_string(rec.target_rule) +
          " breaks canonical rule order (expected " +
          std::to_string(rule_cursor) + ")");
    }
    ++rule_cursor;
    if (rec.first_level != level_cursor) {
      return maras::Status::Corruption(
          where + ": first level " + std::to_string(rec.first_level) +
          " breaks canonical level order (expected " +
          std::to_string(level_cursor) + ")");
    }
    for (uint32_t l = 0; l < rec.level_count; ++l) {
      const uint64_t level_index = level_cursor + l;
      if (level_index >= counts_.levels) {
        return maras::Status::Corruption(where + " claims level " +
                                         std::to_string(level_index) +
                                         " of " +
                                         std::to_string(counts_.levels));
      }
      LevelRecord level;
      MARAS_RETURN_IF_ERROR(
          ReadLevelRec(levels, static_cast<uint32_t>(level_index), &level));
      if (level.first_rule != rule_cursor) {
        return maras::Status::Corruption(
            where + " level " + std::to_string(l) + ": first rule " +
            std::to_string(level.first_rule) +
            " breaks canonical rule order (expected " +
            std::to_string(rule_cursor) + ")");
      }
      rule_cursor += level.rule_count;
      if (rule_cursor > counts_.rules) {
        return maras::Status::Corruption(where + " level " +
                                         std::to_string(l) +
                                         " overruns the rule section");
      }
    }
    level_cursor += rec.level_count;
    if (rec.report_offset != report_cursor) {
      return maras::Status::Corruption(
          where + ": report offset " + std::to_string(rec.report_offset) +
          " breaks canonical report packing (expected " +
          std::to_string(report_cursor) + ")");
    }
    report_cursor += rec.report_count;
    if (report_cursor > counts_.report_ids) {
      return maras::Status::Corruption(where +
                                       " overruns the report-id pool");
    }
  }
  if (rule_cursor != counts_.rules) {
    return maras::Status::Corruption(
        std::to_string(counts_.rules) + " rules in section, signals cover " +
        std::to_string(rule_cursor));
  }
  if (level_cursor != counts_.levels) {
    return maras::Status::Corruption(
        std::to_string(counts_.levels) + " levels in section, signals cover " +
        std::to_string(level_cursor));
  }
  if (report_cursor != counts_.report_ids) {
    return maras::Status::Corruption(
        std::to_string(counts_.report_ids) +
        " report ids in pool, signals cover " + std::to_string(report_cursor));
  }
  return maras::Status::OK();
}

maras::Status SignalSnapshot::ValidateIndex() const {
  const BoundedView& signals = sections_[SectionIndex(SectionId::kSignals)];
  const BoundedView& rules = sections_[SectionIndex(SectionId::kRules)];
  const BoundedView& id_pool = sections_[SectionIndex(SectionId::kItemIdPool)];

  // Postings and lattice lists carry no information of their own: they are
  // derived from the signal targets (serve/snapshot_index.h). Re-derive
  // them and demand an exact match, so a forged entry can never route a
  // query or a drill-down to the wrong signal.
  // Each target's ids are read once. They are a part of the item-id pool,
  // so reserving the pool's size keeps `ids` from reallocating and the
  // spans into it stay valid.
  std::vector<uint32_t> ids;
  ids.reserve(counts_.item_ids);
  std::vector<TargetIds> targets(counts_.signals);
  std::vector<std::span<const uint32_t>> whole(counts_.signals);
  for (uint32_t s = 0; s < counts_.signals; ++s) {
    uint32_t target_rule = 0;
    MARAS_RETURN_IF_ERROR(signals.U32At(
        size_t{s} * kSignalRecordBytes + kSignalTargetRule, &target_rule));
    RuleRec rec;
    MARAS_RETURN_IF_ERROR(ReadRuleRec(rules, target_rule, &rec));
    const size_t begin = ids.size();
    MARAS_RETURN_IF_ERROR(
        AppendItemIds(id_pool, rec.drugs_off, rec.drugs_count, &ids));
    MARAS_RETURN_IF_ERROR(
        AppendItemIds(id_pool, rec.adrs_off, rec.adrs_count, &ids));
    const std::span<const uint32_t> read(ids);
    targets[s] = {read.subspan(begin, rec.drugs_count),
                  read.subspan(begin + rec.drugs_count, rec.adrs_count)};
    whole[s] = read.subspan(begin);
  }
  // Every signal has its own target rule, so two equal targets are forged;
  // the derivation's cover join also needs them distinct. Items are typed,
  // so a target's ids, drugs then ADRs, determine the target.
  std::ranges::sort(whole, std::ranges::lexicographical_compare);
  if (std::ranges::adjacent_find(whole, std::ranges::equal) != whole.end()) {
    return maras::Status::Corruption("two signals share one target");
  }
  const SnapshotIndex index = DeriveSnapshotIndex(targets, counts_.items);

  const BoundedView& posting_pool =
      sections_[SectionIndex(SectionId::kPostingPool)];
  uint64_t cursor = 0;
  const auto check_postings =
      [&](SectionId id, const std::vector<std::vector<uint32_t>>& want,
          const char* what) -> maras::Status {
    for (uint32_t i = 0; i < counts_.items; ++i) {
      PostingRec rec;
      MARAS_RETURN_IF_ERROR(ReadPostingRec(sections_[SectionIndex(id)], i,
                                           &rec));
      MARAS_RETURN_IF_ERROR(CheckDerivedList(posting_pool, rec.offset,
                                             rec.count, want[i], what, i,
                                             &cursor));
    }
    return maras::Status::OK();
  };
  MARAS_RETURN_IF_ERROR(check_postings(SectionId::kDrugPostings,
                                       index.drug_postings,
                                       "drug postings of item "));
  MARAS_RETURN_IF_ERROR(check_postings(SectionId::kAdrPostings,
                                       index.adr_postings,
                                       "ADR postings of item "));
  if (cursor != counts_.postings) {
    return maras::Status::Corruption(
        "posting pool holds " + std::to_string(counts_.postings) +
        " entries but lists cover " + std::to_string(cursor));
  }

  const BoundedView& nav = sections_[SectionIndex(SectionId::kLatticeNav)];
  const BoundedView& edge_pool =
      sections_[SectionIndex(SectionId::kLatticeEdgePool)];
  cursor = 0;
  for (uint32_t s = 0; s < counts_.signals; ++s) {
    LatticeNavRec rec;
    MARAS_RETURN_IF_ERROR(ReadLatticeNavRec(nav, s, &rec));
    MARAS_RETURN_IF_ERROR(CheckDerivedList(
        edge_pool, rec.gen_off, rec.gen_count, index.generalizations[s],
        "lattice generalizations of signal ", s, &cursor));
    MARAS_RETURN_IF_ERROR(CheckDerivedList(
        edge_pool, rec.spec_off, rec.spec_count, index.specializations[s],
        "lattice specializations of signal ", s, &cursor));
  }
  if (cursor != counts_.lattice_edges) {
    return maras::Status::Corruption(
        "lattice edge pool holds " + std::to_string(counts_.lattice_edges) +
        " entries but lists cover " + std::to_string(cursor));
  }
  return maras::Status::OK();
}

maras::Status SignalSnapshot::ItemName(uint32_t item,
                                       std::string_view* name) const {
  MARAS_RETURN_IF_ERROR(CheckIndex(item, counts_.items, "item"));
  ItemRec rec;
  MARAS_RETURN_IF_ERROR(
      ReadItemRec(sections_[SectionIndex(SectionId::kItems)], item, &rec));
  return sections_[SectionIndex(SectionId::kStrings)].BytesAt(
      rec.name_off, rec.name_len, name);
}

maras::Status SignalSnapshot::Domain(uint32_t item,
                                     mining::ItemDomain* domain) const {
  MARAS_RETURN_IF_ERROR(CheckIndex(item, counts_.items, "item"));
  ItemRec rec;
  MARAS_RETURN_IF_ERROR(
      ReadItemRec(sections_[SectionIndex(SectionId::kItems)], item, &rec));
  *domain = static_cast<mining::ItemDomain>(rec.domain);
  return maras::Status::OK();
}

maras::Status SignalSnapshot::Signal(uint32_t index, SignalRecord* out) const {
  MARAS_RETURN_IF_ERROR(CheckIndex(index, counts_.signals, "signal"));
  return ReadSignalRec(sections_[SectionIndex(SectionId::kSignals)], index,
                       out);
}

maras::Status SignalSnapshot::Level(uint32_t index, LevelRecord* out) const {
  MARAS_RETURN_IF_ERROR(CheckIndex(index, counts_.levels, "level"));
  return ReadLevelRec(sections_[SectionIndex(SectionId::kLevels)], index, out);
}

maras::Status SignalSnapshot::Rule(uint32_t index,
                                   core::DrugAdrRule* out) const {
  MARAS_RETURN_IF_ERROR(CheckIndex(index, counts_.rules, "rule"));
  RuleRec rec;
  MARAS_RETURN_IF_ERROR(
      ReadRuleRec(sections_[SectionIndex(SectionId::kRules)], index, &rec));
  const BoundedView& pool = sections_[SectionIndex(SectionId::kItemIdPool)];
  out->drugs.clear();
  MARAS_RETURN_IF_ERROR(
      AppendItemIds(pool, rec.drugs_off, rec.drugs_count, &out->drugs));
  out->adrs.clear();
  MARAS_RETURN_IF_ERROR(
      AppendItemIds(pool, rec.adrs_off, rec.adrs_count, &out->adrs));
  out->support = rec.support;
  out->antecedent_support = rec.antecedent_support;
  out->consequent_support = rec.consequent_support;
  out->confidence = rec.confidence;
  out->lift = rec.lift;
  return maras::Status::OK();
}

maras::Status SignalSnapshot::ReportIds(uint32_t signal,
                                        std::vector<uint64_t>* out) const {
  SignalRecord rec;
  MARAS_RETURN_IF_ERROR(Signal(signal, &rec));
  const BoundedView& pool =
      sections_[SectionIndex(SectionId::kReportIdPool)];
  out->clear();
  out->reserve(rec.report_count);
  for (uint32_t j = 0; j < rec.report_count; ++j) {
    uint64_t id = 0;
    MARAS_RETURN_IF_ERROR(pool.U64At(
        (uint64_t{rec.report_offset} + j) * kReportIdPoolElemBytes, &id));
    out->push_back(id);
  }
  return maras::Status::OK();
}

maras::Status SignalSnapshot::Postings(mining::ItemDomain side, uint32_t item,
                                       std::vector<uint32_t>* out) const {
  MARAS_RETURN_IF_ERROR(CheckIndex(item, counts_.items, "item"));
  const BoundedView& section =
      sections_[SectionIndex(side == mining::ItemDomain::kDrug
                                 ? SectionId::kDrugPostings
                                 : SectionId::kAdrPostings)];
  PostingRec rec;
  MARAS_RETURN_IF_ERROR(ReadPostingRec(section, item, &rec));
  const BoundedView& pool = sections_[SectionIndex(SectionId::kPostingPool)];
  out->clear();
  out->reserve(rec.count);
  for (uint32_t j = 0; j < rec.count; ++j) {
    uint32_t signal = 0;
    MARAS_RETURN_IF_ERROR(pool.U32At(
        (uint64_t{rec.offset} + j) * kPostingPoolElemBytes, &signal));
    out->push_back(signal);
  }
  return maras::Status::OK();
}

maras::Status SignalSnapshot::LatticeList(uint32_t signal, bool spec,
                                          std::vector<uint32_t>* out) const {
  MARAS_RETURN_IF_ERROR(CheckIndex(signal, counts_.signals, "signal"));
  LatticeNavRec rec;
  MARAS_RETURN_IF_ERROR(ReadLatticeNavRec(
      sections_[SectionIndex(SectionId::kLatticeNav)], signal, &rec));
  const uint32_t off = spec ? rec.spec_off : rec.gen_off;
  const uint32_t count = spec ? rec.spec_count : rec.gen_count;
  const BoundedView& pool =
      sections_[SectionIndex(SectionId::kLatticeEdgePool)];
  out->clear();
  out->reserve(count);
  for (uint32_t j = 0; j < count; ++j) {
    uint32_t entry = 0;
    MARAS_RETURN_IF_ERROR(pool.U32At(
        (uint64_t{off} + j) * kLatticeEdgePoolElemBytes, &entry));
    out->push_back(entry);
  }
  return maras::Status::OK();
}

maras::Status SignalSnapshot::Generalizations(
    uint32_t signal, std::vector<uint32_t>* out) const {
  return LatticeList(signal, /*spec=*/false, out);
}

maras::Status SignalSnapshot::Specializations(
    uint32_t signal, std::vector<uint32_t>* out) const {
  return LatticeList(signal, /*spec=*/true, out);
}

maras::StatusOr<core::RankedMcac> SignalSnapshot::Materialize(
    uint32_t index) const {
  SignalRecord rec;
  MARAS_RETURN_IF_ERROR(Signal(index, &rec));
  core::RankedMcac ranked;
  ranked.score = rec.score;
  MARAS_RETURN_IF_ERROR(Rule(rec.target_rule, &ranked.mcac.target));
  ranked.mcac.levels.resize(rec.level_count);
  for (uint32_t l = 0; l < rec.level_count; ++l) {
    LevelRecord level;
    MARAS_RETURN_IF_ERROR(Level(rec.first_level + l, &level));
    std::vector<core::DrugAdrRule>& out_level = ranked.mcac.levels[l];
    out_level.resize(level.rule_count);
    for (uint32_t r = 0; r < level.rule_count; ++r) {
      MARAS_RETURN_IF_ERROR(Rule(level.first_rule + r, &out_level[r]));
    }
  }
  return ranked;
}

maras::StatusOr<ReconstructedInputs> ReconstructInputs(
    const SignalSnapshot& snapshot) {
  ReconstructedInputs out;
  out.stats = snapshot.stats();
  for (uint32_t i = 0; i < snapshot.counts().items; ++i) {
    std::string_view name;
    MARAS_RETURN_IF_ERROR(snapshot.ItemName(i, &name));
    mining::ItemDomain domain = mining::ItemDomain::kDrug;
    MARAS_RETURN_IF_ERROR(snapshot.Domain(i, &domain));
    MARAS_ASSIGN_OR_RETURN(mining::ItemId id, out.items.Intern(name, domain));
    if (id != i) {
      return maras::Status::Internal("reconstructed dictionary diverged");
    }
  }
  const uint32_t signals = snapshot.counts().signals;
  out.signals.reserve(signals);
  out.report_ids.reserve(signals);
  for (uint32_t s = 0; s < signals; ++s) {
    MARAS_ASSIGN_OR_RETURN(core::RankedMcac ranked, snapshot.Materialize(s));
    out.signals.push_back(std::move(ranked));
    std::vector<uint64_t> reports;
    MARAS_RETURN_IF_ERROR(snapshot.ReportIds(s, &reports));
    out.report_ids.push_back(std::move(reports));
  }
  return out;
}

}  // namespace maras::serve
