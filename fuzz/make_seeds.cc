// Generates the seed corpus for the fuzz harnesses. Seeds come from the
// same machinery the corruption study (faers/corruptor) trusts: a real
// synthetic FAERS quarter for the ASCII parser, real codec output for the
// checkpoint decoders, and names with bytes that need escaping for the JSON
// serializer. Starting from valid inputs puts mutations on the boundary
// between accept and reject, where parser bugs live.
//
// Usage: make_seeds <output-dir>
//        (creates <output-dir>/{ascii,checkpoint,json,bitmap,snapshot,
//        lattice,cover_join})

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/checkpoint.h"
#include "core/ranking.h"
#include "faers/ascii_format.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "serve/snapshot_format.h"
#include "serve/snapshot_writer.h"
#include "util/delimited.h"
#include "util/status.h"

namespace {

using maras::core::ClosedCheckpoint;
using maras::core::QuarterCheckpoint;

maras::Status WriteFile(const std::filesystem::path& path,
                        const std::string& bytes) {
  return maras::AtomicWriteStringToFile(path.string(), bytes);
}

// The harness input framing: selector byte for the checkpoint decoders.
std::string WithSelector(unsigned char selector, const std::string& payload) {
  std::string out(1, static_cast<char>(selector));
  out += payload;
  return out;
}

maras::Status Generate(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const char* sub : {"ascii", "checkpoint", "json", "bitmap",
                          "snapshot", "lattice", "cover_join"}) {
    fs::create_directories(root / sub, ec);
    if (ec) {
      return maras::Status::IOError("cannot create " +
                                    (root / sub).string());
    }
  }

  // --- ascii: a small but real synthetic quarter ---------------------------
  maras::faers::GeneratorConfig config;
  config.seed = 20260806;
  config.n_reports = 120;
  config.n_drugs = 40;
  config.n_adrs = 24;
  config.signals.push_back({.name = "seed-signal",
                            .drugs = {"WARFARIN", "ASPIRIN"},
                            .adrs = {"GASTROINTESTINAL HAEMORRHAGE"},
                            .reports = 12});
  maras::faers::SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  if (!dataset.ok()) return dataset.status();
  auto files = maras::faers::WriteAsciiQuarter(*dataset);
  if (!files.ok()) return files.status();

  std::string blob = files->demo;
  blob += '\x1f';
  blob += files->drug;
  blob += '\x1f';
  blob += files->reac;
  MARAS_RETURN_IF_ERROR(WriteFile(root / "ascii" / "quarter.bin", blob));

  const std::string tiny =
      "primaryid$caseid$caseversion$rept_cod$age$sex$occr_country\n"
      "100000001$9001$1$EXP$44$F$US\n"
      "\x1f"
      "primaryid$caseid$drug_seq$role_cod$drugname\n"
      "100000001$9001$1$PS$WARFARIN\n"
      "\x1f"
      "primaryid$caseid$pt\n"
      "100000001$9001$ANAEMIA\n";
  MARAS_RETURN_IF_ERROR(WriteFile(root / "ascii" / "tiny.bin", tiny));
  // Headers only: the smallest structurally-valid quarter.
  const std::string empty_tables =
      "primaryid$caseid$caseversion$rept_cod$age$sex$occr_country\n"
      "\x1f"
      "primaryid$caseid$drug_seq$role_cod$drugname\n"
      "\x1f"
      "primaryid$caseid$pt\n";
  MARAS_RETURN_IF_ERROR(WriteFile(root / "ascii" / "headers.bin",
                                  empty_tables));

  // --- checkpoint: real codec output behind each selector ------------------
  maras::faers::Preprocessor preprocessor({});
  auto preprocessed = preprocessor.Process(*dataset);
  if (!preprocessed.ok()) return preprocessed.status();

  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "checkpoint" / "preprocess.bin",
      WithSelector(0, maras::core::EncodePreprocessResult(*preprocessed))));

  QuarterCheckpoint loaded;
  loaded.outcome.label = "2014Q1";
  loaded.outcome.loaded = true;
  loaded.result = *preprocessed;
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "checkpoint" / "quarter_loaded.bin",
      WithSelector(1, maras::core::EncodeQuarterCheckpoint(loaded))));

  QuarterCheckpoint skipped;
  skipped.outcome.label = "2014Q2";
  skipped.outcome.loaded = false;
  skipped.outcome.error = "IOError: DEMO14Q2.txt missing";
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "checkpoint" / "quarter_skipped.bin",
      WithSelector(1, maras::core::EncodeQuarterCheckpoint(skipped))));

  maras::mining::FrequentItemsetResult itemsets;
  itemsets.Add({1, 2}, 17);
  itemsets.Add({1, 2, 5}, 9);
  itemsets.Add({3}, 40);
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "checkpoint" / "itemsets.bin",
      WithSelector(2, maras::core::EncodeItemsetResult(itemsets))));

  ClosedCheckpoint closed;
  closed.stats.total_rules = 120;
  closed.stats.filtered_rules = 30;
  closed.stats.closed_mixed = 12;
  closed.stats.mcac_count = 4;
  closed.min_support_used = 5;
  closed.truncated = true;
  closed.notes = {"degraded: min_support escalated 2 -> 5"};
  closed.closed = itemsets;
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "checkpoint" / "closed.bin",
      WithSelector(3, maras::core::EncodeClosedCheckpoint(closed))));

  maras::core::DrugAdrRule rule;
  rule.drugs = {3, 9};
  rule.adrs = {14};
  rule.support = 21;
  rule.antecedent_support = 30;
  rule.consequent_support = 44;
  rule.confidence = 0.7;
  rule.lift = 1.0 / 3.0;
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "checkpoint" / "rules.bin",
      WithSelector(4, maras::core::EncodeRules({rule, rule}))));

  maras::core::RankedMcac ranked;
  ranked.mcac.target = rule;
  ranked.mcac.levels = {{rule}};
  ranked.score = 0.83;
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "checkpoint" / "ranked.bin",
      WithSelector(5, maras::core::EncodeRankedMcacs({ranked}))));

  // --- json: names as exports carry them, plus bytes that need escaping ---
  MARAS_RETURN_IF_ERROR(WriteFile(root / "json" / "name.txt",
                                  "ACETAMINOPHEN 500 MG \"EXTRA\" STRENGTH"));
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "json" / "escapes.txt",
      "a\"b\\c/d\xC3\xA9\n\t\r\b\f\x01" "\x1f\x7f"));
  MARAS_RETURN_IF_ERROR(WriteFile(root / "json" / "empty.txt", ""));

  // --- snapshot: a real signal snapshot plus boundary forgeries ------------
  // Valid image first: mutations start on the accept/reject boundary. The
  // forged variants pin the hostile-bytes classes the reader must reject —
  // truncation, forged section lengths, overlapping offsets — so even the
  // first fuzz pass exercises the structured rejection paths.
  {
    maras::core::AnalyzerOptions options;
    options.mining.min_support = 4;
    maras::core::MarasAnalyzer analyzer(options);
    auto analysis = analyzer.Analyze(*preprocessed);
    if (!analysis.ok()) return analysis.status();
    std::vector<maras::core::RankedMcac> signals = maras::core::RankMcacs(
        analysis->mcacs, maras::core::RankingMethod::kExclusivenessLift,
        maras::core::ExclusivenessOptions{});
    maras::serve::SnapshotInputs inputs;
    inputs.items = &preprocessed->items;
    inputs.signals = &signals;
    inputs.stats = analysis->stats;
    inputs.db = &preprocessed->transactions;
    inputs.primary_ids = &preprocessed->primary_ids;
    auto image = maras::serve::EncodeSignalSnapshot(inputs);
    if (!image.ok()) return image.status();
    MARAS_RETURN_IF_ERROR(
        WriteFile(root / "snapshot" / "valid.bin", *image));
    MARAS_RETURN_IF_ERROR(WriteFile(root / "snapshot" / "truncated.bin",
                                    image->substr(0, image->size() / 2)));
    MARAS_RETURN_IF_ERROR(WriteFile(
        root / "snapshot" / "header_only.bin",
        image->substr(0, maras::serve::kFileHeaderBytes +
                             maras::serve::kSectionCount *
                                 maras::serve::kSectionEntryBytes)));

    const auto put_u32 = [](std::string* bytes, size_t pos, uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        (*bytes)[pos + static_cast<size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xFF);
      }
    };
    const auto get_u32 = [](const std::string& bytes, size_t pos) {
      uint32_t v = 0;
      for (int i = 3; i >= 0; --i) {
        v = (v << 8) |
            static_cast<unsigned char>(bytes[pos + static_cast<size_t>(i)]);
      }
      return v;
    };
    // Section table entry i sits at header + i*24; offset at +4, size at +8.
    const size_t entry1 = maras::serve::kFileHeaderBytes +
                          1 * maras::serve::kSectionEntryBytes;
    const size_t entry2 = maras::serve::kFileHeaderBytes +
                          2 * maras::serve::kSectionEntryBytes;
    std::string forged = *image;
    put_u32(&forged, entry1 + 8, get_u32(forged, entry1 + 8) + 8);
    MARAS_RETURN_IF_ERROR(
        WriteFile(root / "snapshot" / "forged_length.bin", forged));
    std::string overlap = *image;
    put_u32(&overlap, entry2 + 4, get_u32(overlap, entry1 + 4));
    MARAS_RETURN_IF_ERROR(
        WriteFile(root / "snapshot" / "overlap.bin", overlap));
    MARAS_RETURN_IF_ERROR(
        WriteFile(root / "snapshot" / "tiny.bin", "MSNP\x01"));
  }

  // --- bitmap: AND-harness inputs ------------------------------------------
  // Layout (see fuzz_bitmap_kernels.cc): [universe lo][universe hi][split]
  // [delta stream A | delta stream B]. Seeds pin dense runs, skewed sparse
  // lists, and an exact one-word universe.
  const auto bitmap_seed = [](uint16_t universe, unsigned char split,
                              std::string deltas) {
    std::string out;
    out.push_back(static_cast<char>(universe & 0xFF));
    out.push_back(static_cast<char>(universe >> 8));
    out.push_back(static_cast<char>(split));
    out += deltas;
    return out;
  };
  // Two dense runs of consecutive tids over a 200-wide universe.
  MARAS_RETURN_IF_ERROR(WriteFile(root / "bitmap" / "dense.bin",
                                  bitmap_seed(200, 128,
                                              std::string(120, '\0'))));
  // Skewed: a short stride-200 list against a long stride-4 list.
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "bitmap" / "skew.bin",
      bitmap_seed(8000, 20, std::string(15, '\xC8') +
                                std::string(180, '\x03'))));
  // Exactly one word: every tid sits in the single (full) trailing word.
  MARAS_RETURN_IF_ERROR(WriteFile(root / "bitmap" / "word64.bin",
                                  bitmap_seed(64, 100,
                                              std::string(80, '\0'))));

  // --- lattice: transaction-bitmask corpora --------------------------------
  // Layout (see fuzz_lattice.cc): [universe selector][min_support and cap
  // selector][one transaction bitmask per byte]. Seeds pin the lattice
  // shapes whose covering edges differ structurally: a layered chain (each
  // mask a strict superset of the previous), an antichain of disjoint pairs,
  // a dense overlapping mix where closures collapse many subsets per node,
  // and a block of four items whose pairs and triples are pseudo-closed
  // under the second mine's cap of 3 (selector 4: min_support 2, cap 3).
  const auto lattice_seed = [](unsigned char uni, unsigned char sup,
                               std::string masks) {
    std::string out;
    out.push_back(static_cast<char>(uni));
    out.push_back(static_cast<char>(sup));
    out += masks;
    return out;
  };
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "lattice" / "chain.bin",
      lattice_seed(4, 0, std::string(8, '\x01') + std::string(6, '\x03') +
                             std::string(4, '\x07') + std::string(2, '\x0F'))));
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "lattice" / "antichain.bin",
      lattice_seed(5, 1, std::string(5, '\x03') + std::string(5, '\x0C') +
                             std::string(5, '\x60'))));
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "lattice" / "dense.bin",
      lattice_seed(3, 0, std::string(6, '\x1F') + std::string(5, '\x17') +
                             std::string(4, '\x0E') + std::string(3, '\x19') +
                             std::string(7, '\x1C'))));
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "lattice" / "capped.bin",
      lattice_seed(5, 4, std::string(2, '\x0F') + std::string(3, '\x31') +
                             std::string(2, '\x46') + std::string(2, '\x78'))));

  // --- cover_join: set families ------------------------------------------
  // Layout (see fuzz_cover_join.cc): [universe selector][one 16-bit set
  // mask per two bytes]. Seeds: a chain of prefixes with the empty set, an
  // antichain of pairs, a hub item in every set but one, and every subset
  // of a 5-item universe (many covers per set).
  const auto cover_seed = [](unsigned char uni,
                             const std::vector<uint16_t>& masks) {
    std::string out(1, static_cast<char>(uni));
    for (uint16_t m : masks) {
      out.push_back(static_cast<char>(m & 0xFF));
      out.push_back(static_cast<char>(m >> 8));
    }
    return out;
  };
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "cover_join" / "chain.bin",
      cover_seed(10, {0x3FF, 0x0FF, 0x03F, 0x00F, 0x003, 0x001, 0x000})));
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "cover_join" / "antichain.bin",
      cover_seed(8, {0x03, 0x0C, 0x30, 0xC0, 0x05, 0x0A, 0x50, 0xA0})));
  MARAS_RETURN_IF_ERROR(WriteFile(
      root / "cover_join" / "hub.bin",
      cover_seed(7, {0x40, 0x01, 0x03, 0x05, 0x07, 0x09, 0x0F, 0x11, 0x1F,
                     0x21, 0x3F})));
  std::vector<uint16_t> powerset;
  for (uint16_t m = 0; m < 32; ++m) powerset.push_back(m);
  MARAS_RETURN_IF_ERROR(WriteFile(root / "cover_join" / "powerset.bin",
                                  cover_seed(3, powerset)));
  return maras::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  maras::Status status = Generate(argv[1]);
  if (!status.ok()) {
    std::fprintf(stderr, "make_seeds: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("make_seeds: corpus written under %s\n", argv[1]);
  return 0;
}
