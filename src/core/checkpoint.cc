#include "core/checkpoint.h"

#include <filesystem>

#include "util/binary_io.h"
#include "util/delimited.h"

namespace maras::core {

namespace {

// "MRCK" read as a little-endian u32.
constexpr uint32_t kCheckpointMagic = 0x4b43524d;

maras::Status Corrupt(const std::string& path, const std::string& stage,
                      const std::string& why) {
  return maras::WithContext(maras::Status::Corruption(why),
                            path + " [stage " + stage + "]");
}

// --- shared sub-codecs ----------------------------------------------------

void EncodeItemset(BinaryWriter* w, const mining::Itemset& s) {
  w->U32(static_cast<uint32_t>(s.size()));
  for (mining::ItemId id : s) w->U32(id);
}

maras::Status DecodeItemset(BinaryReader* r, mining::Itemset* s) {
  uint32_t n = 0;
  MARAS_RETURN_IF_ERROR(r->Count32(&n, sizeof(uint32_t)));
  s->clear();
  s->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t id = 0;
    MARAS_RETURN_IF_ERROR(r->U32(&id));
    s->push_back(id);
  }
  return maras::Status::OK();
}

void EncodeStrings(BinaryWriter* w, const std::vector<std::string>& v) {
  w->U64(v.size());
  for (const std::string& s : v) w->Str(s);
}

maras::Status DecodeStrings(BinaryReader* r, std::vector<std::string>* v) {
  uint64_t n = 0;
  MARAS_RETURN_IF_ERROR(r->U64(&n));
  v->clear();
  for (uint64_t i = 0; i < n; ++i) {
    std::string s;
    MARAS_RETURN_IF_ERROR(r->Str(&s));
    v->push_back(std::move(s));
  }
  return maras::Status::OK();
}

void EncodeIngestReport(BinaryWriter* w, const faers::IngestReport& report) {
  w->U64(report.rows_seen);
  w->U64(report.rows_rejected);
  w->U64(report.collateral_rows);
  w->U64(report.reports_ingested);
  w->U64(report.quarantined.size());
  for (const faers::QuarantinedRow& row : report.quarantined) {
    w->U8(static_cast<uint8_t>(row.fault));
    w->Str(row.file);
    w->U64(row.line);
    w->Str(row.column);
    w->Str(row.reason);
    w->Str(row.content);
  }
  w->U8(report.quarantine_overflow ? 1 : 0);
  EncodeStrings(w, report.warnings);
}

maras::Status DecodeIngestReport(BinaryReader* r,
                                 faers::IngestReport* report) {
  uint64_t v = 0;
  MARAS_RETURN_IF_ERROR(r->U64(&v));
  report->rows_seen = static_cast<size_t>(v);
  MARAS_RETURN_IF_ERROR(r->U64(&v));
  report->rows_rejected = static_cast<size_t>(v);
  MARAS_RETURN_IF_ERROR(r->U64(&v));
  report->collateral_rows = static_cast<size_t>(v);
  MARAS_RETURN_IF_ERROR(r->U64(&v));
  report->reports_ingested = static_cast<size_t>(v);
  uint64_t n = 0;
  MARAS_RETURN_IF_ERROR(r->U64(&n));
  report->quarantined.clear();
  for (uint64_t i = 0; i < n; ++i) {
    faers::QuarantinedRow row;
    uint8_t fault = 0;
    MARAS_RETURN_IF_ERROR(r->U8(&fault));
    if (fault > static_cast<uint8_t>(faers::RowFault::kCollateral)) {
      return maras::Status::Corruption("bad row fault " +
                                       std::to_string(fault));
    }
    row.fault = static_cast<faers::RowFault>(fault);
    MARAS_RETURN_IF_ERROR(r->Str(&row.file));
    MARAS_RETURN_IF_ERROR(r->U64(&v));
    row.line = static_cast<size_t>(v);
    MARAS_RETURN_IF_ERROR(r->Str(&row.column));
    MARAS_RETURN_IF_ERROR(r->Str(&row.reason));
    MARAS_RETURN_IF_ERROR(r->Str(&row.content));
    report->quarantined.push_back(std::move(row));
  }
  uint8_t overflow = 0;
  MARAS_RETURN_IF_ERROR(r->U8(&overflow));
  report->quarantine_overflow = overflow != 0;
  return DecodeStrings(r, &report->warnings);
}

// Smallest possible EncodeRule output: two empty itemsets (4-byte counts)
// plus three U64 supports and two F64 measures. Used to validate decoded
// element counts before reserving.
constexpr size_t kMinEncodedRuleBytes = 4 + 4 + 3 * 8 + 2 * 8;

void EncodeRule(BinaryWriter* w, const DrugAdrRule& rule) {
  EncodeItemset(w, rule.drugs);
  EncodeItemset(w, rule.adrs);
  w->U64(rule.support);
  w->U64(rule.antecedent_support);
  w->U64(rule.consequent_support);
  w->F64(rule.confidence);
  w->F64(rule.lift);
}

maras::Status DecodeRule(BinaryReader* r, DrugAdrRule* rule) {
  MARAS_RETURN_IF_ERROR(DecodeItemset(r, &rule->drugs));
  MARAS_RETURN_IF_ERROR(DecodeItemset(r, &rule->adrs));
  uint64_t v = 0;
  MARAS_RETURN_IF_ERROR(r->U64(&v));
  rule->support = static_cast<size_t>(v);
  MARAS_RETURN_IF_ERROR(r->U64(&v));
  rule->antecedent_support = static_cast<size_t>(v);
  MARAS_RETURN_IF_ERROR(r->U64(&v));
  rule->consequent_support = static_cast<size_t>(v);
  MARAS_RETURN_IF_ERROR(r->F64(&rule->confidence));
  return r->F64(&rule->lift);
}

void EncodeMcac(BinaryWriter* w, const Mcac& mcac) {
  EncodeRule(w, mcac.target);
  w->U64(mcac.levels.size());
  for (const std::vector<DrugAdrRule>& level : mcac.levels) {
    w->U64(level.size());
    for (const DrugAdrRule& rule : level) EncodeRule(w, rule);
  }
}

maras::Status DecodeMcac(BinaryReader* r, Mcac* mcac) {
  MARAS_RETURN_IF_ERROR(DecodeRule(r, &mcac->target));
  uint64_t levels = 0;
  MARAS_RETURN_IF_ERROR(r->U64(&levels));
  mcac->levels.clear();
  for (uint64_t l = 0; l < levels; ++l) {
    uint64_t rules = 0;
    MARAS_RETURN_IF_ERROR(r->Count(&rules, kMinEncodedRuleBytes));
    std::vector<DrugAdrRule> level;
    level.reserve(static_cast<size_t>(rules));
    for (uint64_t i = 0; i < rules; ++i) {
      DrugAdrRule rule;
      MARAS_RETURN_IF_ERROR(DecodeRule(r, &rule));
      level.push_back(std::move(rule));
    }
    mcac->levels.push_back(std::move(level));
  }
  return maras::Status::OK();
}

maras::Status RequireExhausted(const BinaryReader& r) {
  if (!r.exhausted()) {
    return maras::Status::Corruption(
        "payload has " + std::to_string(r.remaining()) + " trailing bytes");
  }
  return maras::Status::OK();
}

}  // namespace

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 14695981039346656037ull;
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string CheckpointPath(const std::string& dir, const std::string& stage) {
  return dir + "/" + stage + ".ckpt";
}

maras::Status WriteCheckpoint(const std::string& dir, const std::string& stage,
                              const std::string& payload) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return maras::Status::IOError("cannot create checkpoint dir " + dir +
                                  ": " + ec.message());
  }
  BinaryWriter w;
  w.U32(kCheckpointMagic);
  w.U32(kCheckpointVersion);
  w.Str(stage);
  w.U64(payload.size());
  w.U64(Fnv1a64(payload));
  std::string framed = std::move(w.Take());
  framed += payload;
  return AtomicWriteStringToFile(CheckpointPath(dir, stage), framed);
}

maras::StatusOr<std::string> ReadCheckpoint(const std::string& dir,
                                            const std::string& stage) {
  const std::string path = CheckpointPath(dir, stage);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return maras::Status::NotFound("no checkpoint for stage '" + stage +
                                   "': " + path);
  }
  MARAS_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  BinaryReader r(content);
  uint32_t magic = 0, version = 0;
  if (!r.U32(&magic).ok() || magic != kCheckpointMagic) {
    return Corrupt(path, stage, "bad magic (not a checkpoint file)");
  }
  if (!r.U32(&version).ok()) return Corrupt(path, stage, "truncated header");
  if (version != kCheckpointVersion) {
    return Corrupt(path, stage,
                   "unsupported checkpoint version " + std::to_string(version));
  }
  std::string file_stage;
  uint64_t size = 0, checksum = 0;
  if (!r.Str(&file_stage).ok() || !r.U64(&size).ok() ||
      !r.U64(&checksum).ok()) {
    return Corrupt(path, stage, "truncated header");
  }
  if (file_stage != stage) {
    return Corrupt(path, stage, "stage mismatch: file says '" + file_stage +
                                    "'");
  }
  if (r.remaining() != size) {
    return Corrupt(path, stage,
                   "truncated payload: " + std::to_string(r.remaining()) +
                       " of " + std::to_string(size) + " bytes present");
  }
  std::string payload = content.substr(content.size() - r.remaining());
  if (Fnv1a64(payload) != checksum) {
    return Corrupt(path, stage, "checksum mismatch (torn or corrupt write)");
  }
  return payload;
}

// --- stage codecs ---------------------------------------------------------

std::string EncodePreprocessResult(const faers::PreprocessResult& result) {
  BinaryWriter w;
  w.U64(result.items.size());
  for (size_t i = 0; i < result.items.size(); ++i) {
    auto id = static_cast<mining::ItemId>(i);
    w.Str(result.items.Name(id));
    w.U8(static_cast<uint8_t>(result.items.Domain(id)));
  }
  w.U64(result.transactions.size());
  for (const mining::Itemset& t : result.transactions.transactions()) {
    EncodeItemset(&w, t);
  }
  w.U64(result.primary_ids.size());
  for (uint64_t id : result.primary_ids) w.U64(id);
  const faers::PreprocessStats& s = result.stats;
  for (size_t counter :
       {s.reports_in, s.reports_kept, s.dropped_not_expedited,
        s.dropped_stale_version, s.dropped_empty, s.distinct_drugs,
        s.distinct_adrs, s.drug_mentions, s.adr_mentions, s.fuzzy_corrections,
        s.alias_resolutions}) {
    w.U64(counter);
  }
  return std::move(w.Take());
}

maras::StatusOr<faers::PreprocessResult> DecodePreprocessResult(
    std::string_view payload) {
  BinaryReader r(payload);
  faers::PreprocessResult result;
  uint64_t items = 0;
  MARAS_RETURN_IF_ERROR(r.U64(&items));
  for (uint64_t i = 0; i < items; ++i) {
    std::string name;
    uint8_t domain = 0;
    MARAS_RETURN_IF_ERROR(r.Str(&name));
    MARAS_RETURN_IF_ERROR(r.U8(&domain));
    if (domain > static_cast<uint8_t>(mining::ItemDomain::kAdr)) {
      return maras::Status::Corruption("bad item domain " +
                                       std::to_string(domain));
    }
    MARAS_ASSIGN_OR_RETURN(
        mining::ItemId id,
        result.items.Intern(name, static_cast<mining::ItemDomain>(domain)));
    if (id != static_cast<mining::ItemId>(i)) {
      return maras::Status::Corruption("duplicate item name '" + name + "'");
    }
  }
  uint64_t transactions = 0;
  MARAS_RETURN_IF_ERROR(r.U64(&transactions));
  std::vector<mining::Itemset> decoded;
  for (uint64_t t = 0; t < transactions; ++t) {
    mining::Itemset itemset;
    MARAS_RETURN_IF_ERROR(DecodeItemset(&r, &itemset));
    // Every id must resolve in the dictionary decoded above: the database's
    // vertical index is ItemId-addressed, so an out-of-dictionary id is
    // corruption (and would otherwise size the index by the forged id).
    for (mining::ItemId id : itemset) {
      if (static_cast<uint64_t>(id) >= items) {
        return maras::Status::Corruption("transaction item id " +
                                         std::to_string(id) +
                                         " outside dictionary");
      }
    }
    decoded.push_back(std::move(itemset));
  }
  // Stored transactions are sorted and deduplicated, so Build reproduces
  // them byte-identically.
  result.transactions = mining::TransactionDatabase::Build(std::move(decoded));
  uint64_t ids = 0;
  MARAS_RETURN_IF_ERROR(r.Count(&ids, sizeof(uint64_t)));
  // MergeQuarters reads one primary id per transaction.
  if (ids < transactions) {
    return maras::Status::Corruption(
        std::to_string(ids) + " primary ids for " +
        std::to_string(transactions) + " transactions");
  }
  result.primary_ids.reserve(static_cast<size_t>(ids));
  for (uint64_t i = 0; i < ids; ++i) {
    uint64_t id = 0;
    MARAS_RETURN_IF_ERROR(r.U64(&id));
    result.primary_ids.push_back(id);
  }
  faers::PreprocessStats& s = result.stats;
  for (size_t* counter :
       {&s.reports_in, &s.reports_kept, &s.dropped_not_expedited,
        &s.dropped_stale_version, &s.dropped_empty, &s.distinct_drugs,
        &s.distinct_adrs, &s.drug_mentions, &s.adr_mentions,
        &s.fuzzy_corrections, &s.alias_resolutions}) {
    uint64_t v = 0;
    MARAS_RETURN_IF_ERROR(r.U64(&v));
    *counter = static_cast<size_t>(v);
  }
  MARAS_RETURN_IF_ERROR(RequireExhausted(r));
  return result;
}

std::string EncodeQuarterCheckpoint(const QuarterCheckpoint& quarter) {
  BinaryWriter w;
  w.Str(quarter.outcome.label);
  w.U8(quarter.outcome.loaded ? 1 : 0);
  w.Str(quarter.outcome.error);
  EncodeIngestReport(&w, quarter.outcome.ingest);
  w.U8(quarter.result.has_value() ? 1 : 0);
  if (quarter.result.has_value()) {
    w.Str(EncodePreprocessResult(*quarter.result));
  }
  return std::move(w.Take());
}

maras::StatusOr<QuarterCheckpoint> DecodeQuarterCheckpoint(
    std::string_view payload) {
  BinaryReader r(payload);
  QuarterCheckpoint quarter;
  MARAS_RETURN_IF_ERROR(r.Str(&quarter.outcome.label));
  uint8_t flag = 0;
  MARAS_RETURN_IF_ERROR(r.U8(&flag));
  quarter.outcome.loaded = flag != 0;
  MARAS_RETURN_IF_ERROR(r.Str(&quarter.outcome.error));
  MARAS_RETURN_IF_ERROR(DecodeIngestReport(&r, &quarter.outcome.ingest));
  MARAS_RETURN_IF_ERROR(r.U8(&flag));
  if (flag != 0) {
    std::string nested;
    MARAS_RETURN_IF_ERROR(r.Str(&nested));
    MARAS_ASSIGN_OR_RETURN(quarter.result, DecodePreprocessResult(nested));
  }
  MARAS_RETURN_IF_ERROR(RequireExhausted(r));
  return quarter;
}

maras::StatusOr<QuarterCheckpoint> ReadQuarterCheckpoint(
    const std::string& dir, const std::string& label) {
  MARAS_ASSIGN_OR_RETURN(std::string payload,
                         ReadCheckpoint(dir, "quarter-" + label));
  MARAS_ASSIGN_OR_RETURN(QuarterCheckpoint quarter,
                         DecodeQuarterCheckpoint(payload));
  if (quarter.outcome.label != label) {
    return maras::Status::Corruption("snapshot is for quarter '" +
                                     quarter.outcome.label + "'");
  }
  return quarter;
}

std::string EncodeItemsetResult(const mining::FrequentItemsetResult& result) {
  BinaryWriter w;
  w.U64(result.size());
  for (const mining::FrequentItemset& fi : result.itemsets()) {
    EncodeItemset(&w, fi.items);
    w.U64(fi.support);
  }
  return std::move(w.Take());
}

maras::StatusOr<mining::FrequentItemsetResult> DecodeItemsetResult(
    std::string_view payload) {
  BinaryReader r(payload);
  mining::FrequentItemsetResult result;
  uint64_t n = 0;
  MARAS_RETURN_IF_ERROR(r.U64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    mining::Itemset items;
    MARAS_RETURN_IF_ERROR(DecodeItemset(&r, &items));
    uint64_t support = 0;
    MARAS_RETURN_IF_ERROR(r.U64(&support));
    // Itemsets were stored in canonical order; Add preserves it.
    result.Add(std::move(items), static_cast<size_t>(support));
  }
  MARAS_RETURN_IF_ERROR(RequireExhausted(r));
  return result;
}

std::string EncodeClosedCheckpoint(const ClosedCheckpoint& closed) {
  BinaryWriter w;
  w.U64(closed.stats.total_rules);
  w.U64(closed.stats.filtered_rules);
  w.U64(closed.stats.closed_mixed);
  w.U64(closed.stats.mcac_count);
  w.U64(closed.min_support_used);
  w.U8(closed.truncated ? 1 : 0);
  EncodeStrings(&w, closed.notes);
  w.Str(EncodeItemsetResult(closed.closed));
  return std::move(w.Take());
}

maras::StatusOr<ClosedCheckpoint> DecodeClosedCheckpoint(
    std::string_view payload) {
  BinaryReader r(payload);
  ClosedCheckpoint closed;
  MARAS_RETURN_IF_ERROR(r.U64(&closed.stats.total_rules));
  MARAS_RETURN_IF_ERROR(r.U64(&closed.stats.filtered_rules));
  MARAS_RETURN_IF_ERROR(r.U64(&closed.stats.closed_mixed));
  MARAS_RETURN_IF_ERROR(r.U64(&closed.stats.mcac_count));
  MARAS_RETURN_IF_ERROR(r.U64(&closed.min_support_used));
  uint8_t truncated = 0;
  MARAS_RETURN_IF_ERROR(r.U8(&truncated));
  closed.truncated = truncated != 0;
  MARAS_RETURN_IF_ERROR(DecodeStrings(&r, &closed.notes));
  std::string nested;
  MARAS_RETURN_IF_ERROR(r.Str(&nested));
  MARAS_ASSIGN_OR_RETURN(closed.closed, DecodeItemsetResult(nested));
  MARAS_RETURN_IF_ERROR(RequireExhausted(r));
  return closed;
}

std::string EncodeRules(const std::vector<DrugAdrRule>& rules) {
  BinaryWriter w;
  w.U64(rules.size());
  for (const DrugAdrRule& rule : rules) EncodeRule(&w, rule);
  return std::move(w.Take());
}

maras::StatusOr<std::vector<DrugAdrRule>> DecodeRules(
    std::string_view payload) {
  BinaryReader r(payload);
  uint64_t n = 0;
  MARAS_RETURN_IF_ERROR(r.Count(&n, kMinEncodedRuleBytes));
  std::vector<DrugAdrRule> rules;
  rules.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    DrugAdrRule rule;
    MARAS_RETURN_IF_ERROR(DecodeRule(&r, &rule));
    rules.push_back(std::move(rule));
  }
  MARAS_RETURN_IF_ERROR(RequireExhausted(r));
  return rules;
}

std::string EncodeRankedMcacs(const std::vector<RankedMcac>& ranked) {
  BinaryWriter w;
  w.U64(ranked.size());
  for (const RankedMcac& entry : ranked) {
    EncodeMcac(&w, entry.mcac);
    w.F64(entry.score);
  }
  return std::move(w.Take());
}

maras::StatusOr<std::vector<RankedMcac>> DecodeRankedMcacs(
    std::string_view payload) {
  BinaryReader r(payload);
  uint64_t n = 0;
  // Each RankedMcac holds at least a target rule, a level count, a score.
  MARAS_RETURN_IF_ERROR(r.Count(&n, kMinEncodedRuleBytes + 2 * 8));
  std::vector<RankedMcac> ranked;
  ranked.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    RankedMcac entry;
    MARAS_RETURN_IF_ERROR(DecodeMcac(&r, &entry.mcac));
    MARAS_RETURN_IF_ERROR(r.F64(&entry.score));
    ranked.push_back(std::move(entry));
  }
  MARAS_RETURN_IF_ERROR(RequireExhausted(r));
  return ranked;
}

}  // namespace maras::core
