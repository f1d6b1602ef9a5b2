#ifndef MARAS_SERVE_SNAPSHOT_FORMAT_H_
#define MARAS_SERVE_SNAPSHOT_FORMAT_H_

#include <cstdint>

namespace maras::serve {

// ---------------------------------------------------------------------------
// Signal snapshot: the immutable, relocatable serving-side image of one
// analysis run — ranked MCACs, their contextual rules, item names,
// drug→signal / ADR→signal postings and supporting report ids — laid out as
// one offset-indexed arena so a query process can memory-map it and answer
// lookups without parsing, allocation, or pointer fix-up.
//
// File layout (all integers little-endian, fixed width; no varints):
//
//   [FileHeader: 24 bytes]
//     magic            u32  "MSNP"
//     version          u32
//     section_count    u32  (== kSectionCount)
//     reserved         u32  (0)
//     table_checksum   u64  FNV-1a 64 over the section-table bytes
//   [SectionTable: section_count × 24 bytes]
//     id               u32  (SectionId, in kSectionOrder order)
//     offset           u32  absolute file offset of the payload
//     size             u32  payload size in bytes
//     reserved         u32  (0)
//     checksum         u64  FNV-1a 64 over the payload bytes
//   [Section payloads, byte-contiguous in table order]
//
// Relocatability: nothing in the file is a pointer. Cross-references are
// 32-bit *element indices* into sibling sections (the PoolOffset idiom), so
// the image is valid at any load address and can be copied byte-for-byte.
//
// Canonical form: the writer emits exactly one encoding for a given input —
// sections are contiguous in kSectionOrder with no gaps, string/pool
// offsets are cumulative in emission order, and posting lists are exactly
// the lists derived from the signal targets. The reader validates all of
// it, so decode→re-encode is byte-identical and a "plausible but not
// writer-shaped" file is rejected as forged, not half-served.
//
// Failure model: every field of an opened snapshot is hostile until
// validated. Framing (magic/version/size/offsets/checksums) and semantics
// (counts, index ranges, domains, canonical layout) are checked before any
// query runs, and all byte access — during validation and during queries —
// goes through serve/bounded_view.h, so a forged offset is a structured
// Corruption status, never an out-of-bounds read.
// ---------------------------------------------------------------------------

// "MSNP" read as a little-endian u32.
inline constexpr uint32_t kSnapshotMagic = 0x504e534d;
// v2 added the lattice-navigation sections (generalize/specialize covering
// edges between stored signals) and their two meta counts. Every v2 image
// carries navigation for every signal; one without it is corrupt.
inline constexpr uint32_t kSnapshotVersion = 2;

enum class SectionId : uint32_t {
  kMeta = 1,          // counts + rule-space stats (fixed 72 bytes)
  kStrings = 2,       // concatenated item-name bytes
  kItems = 3,         // per item: name_offset, name_length, domain
  kRules = 4,         // flattened rule records (targets + context rules)
  kSignals = 5,       // per ranked signal: target/levels/reports/score
  kLevels = 6,        // per context level: first_rule, rule_count
  kItemIdPool = 7,    // u32 ItemId pool backing every rule itemset
  kDrugPostings = 8,  // per item: (offset, count) into the posting pool
  kAdrPostings = 9,   // per item: (offset, count) into the posting pool
  kPostingPool = 10,  // u32 signal indices, ascending per list
  kReportIdPool = 11, // u64 report primary-ids, grouped by signal
  kLatticeNav = 12,   // per signal: generalize/specialize edge-pool extents
  kLatticeEdgePool = 13,  // u32 signal indices backing the nav lists
};

inline constexpr uint32_t kSectionCount = 13;

// The one canonical section order; the writer emits it and the reader
// rejects any other (a reordered table is a forged file, not a variant).
inline constexpr SectionId kSectionOrder[kSectionCount] = {
    SectionId::kMeta,         SectionId::kStrings,
    SectionId::kItems,        SectionId::kRules,
    SectionId::kSignals,      SectionId::kLevels,
    SectionId::kItemIdPool,   SectionId::kDrugPostings,
    SectionId::kAdrPostings,  SectionId::kPostingPool,
    SectionId::kReportIdPool, SectionId::kLatticeNav,
    SectionId::kLatticeEdgePool,
};

// Fixed header/record geometry. Field offsets below are relative to the
// start of the enclosing record; records are tightly packed (no padding
// other than the fields spelled out here), and readers access fields by
// explicit offset through BoundedView — the structs are never memcpy'd
// wholesale, so there is no layout UB to get wrong.
inline constexpr size_t kFileHeaderBytes = 24;
inline constexpr size_t kSectionEntryBytes = 24;

// kMeta payload: eight u32 counts, the four u64 RuleSpaceStats fields, then
// the two u32 lattice counts appended by v2. kMetaLatticeNavCount always
// equals the signal count.
inline constexpr size_t kMetaBytes = 8 * 4 + 4 * 8 + 2 * 4;
inline constexpr size_t kMetaSignalCount = 0;
inline constexpr size_t kMetaItemCount = 4;
inline constexpr size_t kMetaRuleCount = 8;
inline constexpr size_t kMetaLevelCount = 12;
inline constexpr size_t kMetaItemIdCount = 16;
inline constexpr size_t kMetaPostingCount = 20;
inline constexpr size_t kMetaReportIdCount = 24;
inline constexpr size_t kMetaStringBytes = 28;
inline constexpr size_t kMetaStatsTotalRules = 32;
inline constexpr size_t kMetaStatsFilteredRules = 40;
inline constexpr size_t kMetaStatsClosedMixed = 48;
inline constexpr size_t kMetaStatsMcacCount = 56;
inline constexpr size_t kMetaLatticeNavCount = 64;
inline constexpr size_t kMetaLatticeEdgeCount = 68;

// kItems record: {name_offset u32, name_length u32, domain u32}.
inline constexpr size_t kItemRecordBytes = 12;
inline constexpr size_t kItemNameOffset = 0;
inline constexpr size_t kItemNameLength = 4;
inline constexpr size_t kItemDomain = 8;

// kRules record: {drugs_offset u32, drugs_count u32, adrs_offset u32,
// adrs_count u32, support u64, antecedent_support u64,
// consequent_support u64, confidence f64, lift f64}. Offsets are element
// indices into kItemIdPool.
inline constexpr size_t kRuleRecordBytes = 56;
inline constexpr size_t kRuleDrugsOffset = 0;
inline constexpr size_t kRuleDrugsCount = 4;
inline constexpr size_t kRuleAdrsOffset = 8;
inline constexpr size_t kRuleAdrsCount = 12;
inline constexpr size_t kRuleSupport = 16;
inline constexpr size_t kRuleAntecedentSupport = 24;
inline constexpr size_t kRuleConsequentSupport = 32;
inline constexpr size_t kRuleConfidence = 40;
inline constexpr size_t kRuleLift = 48;

// kSignals record: {target_rule u32, first_level u32, level_count u32,
// report_offset u32, report_count u32, reserved u32, score f64}. Signals
// are stored in rank order, so record index == rank − 1.
inline constexpr size_t kSignalRecordBytes = 32;
inline constexpr size_t kSignalTargetRule = 0;
inline constexpr size_t kSignalFirstLevel = 4;
inline constexpr size_t kSignalLevelCount = 8;
inline constexpr size_t kSignalReportOffset = 12;
inline constexpr size_t kSignalReportCount = 16;
inline constexpr size_t kSignalScore = 24;

// kLevels record: {first_rule u32, rule_count u32}.
inline constexpr size_t kLevelRecordBytes = 8;
inline constexpr size_t kLevelFirstRule = 0;
inline constexpr size_t kLevelRuleCount = 4;

// kDrugPostings / kAdrPostings record: {offset u32, count u32} into
// kPostingPool; one record per interned item, dense by ItemId.
inline constexpr size_t kPostingRecordBytes = 8;
inline constexpr size_t kPostingOffset = 0;
inline constexpr size_t kPostingCount = 4;

// kLatticeNav record: {gen_offset u32, gen_count u32, spec_offset u32,
// spec_count u32}. Offsets are element indices into kLatticeEdgePool; one
// record per signal, in rank order. "Generalizations" of signal s are the
// signals with the same ADR set whose drug set is a maximal proper subset
// of s's (one covering step up the concept lattice); "specializations" are
// the inverse relation. Each list is sorted ascending, and the pool is
// packed canonically: per signal, gen list then spec list, in signal order.
// Postings and these lists are derived by serve/snapshot_index.h.
inline constexpr size_t kLatticeNavRecordBytes = 16;
inline constexpr size_t kLatticeNavGenOffset = 0;
inline constexpr size_t kLatticeNavGenCount = 4;
inline constexpr size_t kLatticeNavSpecOffset = 8;
inline constexpr size_t kLatticeNavSpecCount = 12;

inline constexpr size_t kItemIdPoolElemBytes = 4;
inline constexpr size_t kPostingPoolElemBytes = 4;
inline constexpr size_t kReportIdPoolElemBytes = 8;
inline constexpr size_t kLatticeEdgePoolElemBytes = 4;

}  // namespace maras::serve

#endif  // MARAS_SERVE_SNAPSHOT_FORMAT_H_
