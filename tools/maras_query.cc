// maras-query: the serving-path CLI. Builds signal snapshots from a FAERS
// ASCII quarter and answers queries against the crash-safe SnapshotStore —
// every answer comes off the validated, memory-mapped snapshot, never from
// re-running the analyzer.
//
//   $ maras-query build <store-dir> <faers-dir> <quarter> [min-support]
//   $ maras-query topk <store-dir> [k]
//   $ maras-query drug <store-dir> <NAME>
//   $ maras-query adr <store-dir> <NAME>
//   $ maras-query drilldown <store-dir> <rank>
//   $ maras-query validate <snapshot-file>
//   $ maras-query status <store-dir>
//   $ maras-query check <store-dir> <faers-dir> <quarter> [min-support]
//
// `build` publishes the next generation (atomic tmp+fsync+rename, CURRENT
// commit point). `validate` runs the full hostile-bytes validation pipeline
// over one file and reports the structured verdict. `status` prints the
// served generation plus the store's quarantine/fallback diagnostics.
// `check` re-runs the analyzer in memory and fails unless the snapshot's
// answers are byte-identical to it.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/checkpoint.h"
#include "core/ranking.h"
#include "faers/ascii_format.h"
#include "faers/preprocess.h"
#include "serve/query_engine.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_store.h"
#include "text/normalizer.h"

using namespace maras;

namespace {

// One fixed analyzer configuration shared by `build` and `check`, so the
// byte-identity comparison is meaningful.
core::AnalyzerOptions AnalyzerConfig(size_t min_support) {
  core::AnalyzerOptions options;
  options.mining.min_support = min_support;
  options.mining.max_itemset_size = 7;
  return options;
}

struct Analyzed {
  faers::PreprocessResult pre;
  std::vector<core::RankedMcac> ranked;
  core::RuleSpaceStats stats;
};

StatusOr<Analyzed> AnalyzeQuarter(const std::string& faers_dir, int quarter,
                                  size_t min_support) {
  auto dataset = faers::ReadAsciiQuarterFromDir(faers_dir, 2014, quarter);
  MARAS_RETURN_IF_ERROR_CTX(dataset.status(), "load " + faers_dir);
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  auto pre = preprocessor.Process(*dataset);
  MARAS_RETURN_IF_ERROR_CTX(pre.status(), "preprocess");
  core::MarasAnalyzer analyzer(AnalyzerConfig(min_support));
  auto analysis = analyzer.Analyze(*pre);
  MARAS_RETURN_IF_ERROR_CTX(analysis.status(), "analyze");
  Analyzed out;
  out.ranked = core::RankMcacs(analysis->mcacs,
                               core::RankingMethod::kExclusivenessLift,
                               core::ExclusivenessOptions{});
  out.stats = analysis->stats;
  out.pre = *std::move(pre);
  return out;
}

serve::SnapshotStore::Options StoreOptions(const std::string& dir) {
  serve::SnapshotStore::Options options;
  options.dir = dir;
  return options;
}

// Acquires the committed snapshot and prints any fallback diagnostics the
// resolution produced, so a quarantine never happens silently.
StatusOr<serve::QueryEngine> OpenEngine(const std::string& dir) {
  serve::SnapshotStore store(StoreOptions(dir));
  auto snapshot = store.Acquire();
  for (const std::string& line : store.diagnostics()) {
    std::fprintf(stderr, "store: %s\n", line.c_str());
  }
  MARAS_RETURN_IF_ERROR_CTX(snapshot.status(), "open store " + dir);
  std::fprintf(stderr, "serving generation %llu\n",
               static_cast<unsigned long long>(store.current_generation()));
  return serve::QueryEngine::Create(*snapshot);
}

void PrintSignal(const serve::QueryEngine& engine, uint32_t index) {
  serve::SignalRecord record;
  core::DrugAdrRule target;
  Status status = engine.snapshot().Signal(index, &record);
  if (status.ok()) status = engine.snapshot().Rule(record.target_rule, &target);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return;
  }
  std::string drugs, adrs;
  for (uint32_t id : target.drugs) {
    std::string_view name;
    if (engine.snapshot().ItemName(id, &name).ok()) {
      if (!drugs.empty()) drugs += ", ";
      drugs += name;
    }
  }
  for (uint32_t id : target.adrs) {
    std::string_view name;
    if (engine.snapshot().ItemName(id, &name).ok()) {
      if (!adrs.empty()) adrs += ", ";
      adrs += name;
    }
  }
  std::printf("%4u. [%s] => [%s]  supp=%zu conf=%.3f score=%.4f "
              "reports=%u levels=%u\n",
              index + 1, drugs.c_str(), adrs.c_str(), target.support,
              target.confidence, record.score, record.report_count,
              record.level_count);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

int CmdBuild(const std::string& store_dir, const std::string& faers_dir,
             int quarter, size_t min_support) {
  auto analyzed = AnalyzeQuarter(faers_dir, quarter, min_support);
  if (!analyzed.ok()) return Fail(analyzed.status());
  serve::SnapshotInputs inputs;
  inputs.items = &analyzed->pre.items;
  inputs.signals = &analyzed->ranked;
  inputs.stats = analyzed->stats;
  inputs.db = &analyzed->pre.transactions;
  inputs.primary_ids = &analyzed->pre.primary_ids;
  serve::SnapshotStore store(StoreOptions(store_dir));
  Status status = store.Publish(inputs);
  if (!status.ok()) return Fail(status);
  std::printf("published generation %llu: %zu signals from %zu reports\n",
              static_cast<unsigned long long>(store.current_generation()),
              analyzed->ranked.size(), analyzed->pre.transactions.size());
  return 0;
}

int CmdTopK(const std::string& store_dir, uint32_t k) {
  auto engine = OpenEngine(store_dir);
  if (!engine.ok()) return Fail(engine.status());
  for (uint32_t index : engine->TopK(k)) PrintSignal(*engine, index);
  return 0;
}

int CmdSearch(const std::string& store_dir, const std::string& raw,
              bool is_drug) {
  auto engine = OpenEngine(store_dir);
  if (!engine.ok()) return Fail(engine.status());
  const std::string name = text::NormalizeName(raw);
  auto signals = is_drug ? engine->SignalsForDrug(name)
                         : engine->SignalsForAdr(name);
  if (!signals.ok()) return Fail(signals.status());
  for (uint32_t index : *signals) PrintSignal(*engine, index);
  std::printf("%zu signals involve [%s]\n", signals->size(), name.c_str());
  return 0;
}

int CmdDrillDown(const std::string& store_dir, uint32_t rank) {
  auto engine = OpenEngine(store_dir);
  if (!engine.ok()) return Fail(engine.status());
  PrintSignal(*engine, rank);
  auto reports = engine->SupportingReportIds(rank);
  if (!reports.ok()) return Fail(reports.status());
  std::printf("  supporting reports (%zu):", reports->size());
  for (uint64_t id : *reports) {
    std::printf(" %llu", static_cast<unsigned long long>(id));
  }
  std::printf("\n");
  auto up = engine->Generalize(rank);
  if (!up.ok()) return Fail(up.status());
  std::printf("  generalizations (%zu signals, one covering step up):\n",
              up->size());
  for (uint32_t index : *up) PrintSignal(*engine, index);
  auto down = engine->Specialize(rank);
  if (!down.ok()) return Fail(down.status());
  std::printf("  specializations (%zu signals, one covering step down):\n",
              down->size());
  for (uint32_t index : *down) PrintSignal(*engine, index);
  return 0;
}

int CmdValidate(const std::string& path) {
  auto snapshot = serve::SignalSnapshot::OpenFile(path);
  if (!snapshot.ok()) {
    std::printf("INVALID %s\n  %s\n", path.c_str(),
                snapshot.status().ToString().c_str());
    return 1;
  }
  const serve::SnapshotCounts& counts = snapshot->counts();
  std::printf("OK %s\n  signals=%u items=%u rules=%u levels=%u "
              "report-ids=%u lattice-edges=%u\n",
              path.c_str(), counts.signals, counts.items, counts.rules,
              counts.levels, counts.report_ids, counts.lattice_edges);
  return 0;
}

int CmdStatus(const std::string& store_dir) {
  serve::SnapshotStore store(StoreOptions(store_dir));
  auto snapshot = store.Acquire();
  for (const std::string& line : store.diagnostics()) {
    std::printf("diagnostic: %s\n", line.c_str());
  }
  if (!snapshot.ok()) {
    std::printf("no servable generation: %s\n",
                snapshot.status().ToString().c_str());
    return 1;
  }
  std::printf("serving generation %llu (%u signals)\n",
              static_cast<unsigned long long>(store.current_generation()),
              (*snapshot)->counts().signals);
  return 0;
}

// Re-runs the analyzer and demands byte-identity between the snapshot's
// materialized answers and the in-memory ranking — the acceptance invariant
// of the serving path, checkable in production, not just in tests.
int CmdCheck(const std::string& store_dir, const std::string& faers_dir,
             int quarter, size_t min_support) {
  auto analyzed = AnalyzeQuarter(faers_dir, quarter, min_support);
  if (!analyzed.ok()) return Fail(analyzed.status());
  auto engine = OpenEngine(store_dir);
  if (!engine.ok()) return Fail(engine.status());
  std::vector<core::RankedMcac> materialized;
  const uint32_t n = engine->snapshot().counts().signals;
  for (uint32_t i = 0; i < n; ++i) {
    auto ranked = engine->Materialize(i);
    if (!ranked.ok()) return Fail(ranked.status());
    materialized.push_back(*std::move(ranked));
  }
  const std::string from_snapshot = core::EncodeRankedMcacs(materialized);
  const std::string from_analyzer = core::EncodeRankedMcacs(analyzed->ranked);
  if (from_snapshot != from_analyzer) {
    std::fprintf(stderr,
                 "MISMATCH: snapshot answers differ from the analyzer "
                 "(%zu vs %zu encoded bytes, %u vs %zu signals)\n",
                 from_snapshot.size(), from_analyzer.size(), n,
                 analyzed->ranked.size());
    return 1;
  }
  std::printf("byte-identical: %u signals, %zu encoded bytes\n", n,
              from_snapshot.size());
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> ...\n"
      "  build <store-dir> <faers-dir> <quarter> [min-support]\n"
      "  topk <store-dir> [k]\n"
      "  drug <store-dir> <NAME>\n"
      "  adr <store-dir> <NAME>\n"
      "  drilldown <store-dir> <rank>\n"
      "  validate <snapshot-file>\n"
      "  status <store-dir>\n"
      "  check <store-dir> <faers-dir> <quarter> [min-support]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);
  const std::string command = argv[1];
  const std::string target = argv[2];
  if (command == "build" && argc >= 5) {
    return CmdBuild(target, argv[3], std::atoi(argv[4]),
                    argc > 5 ? static_cast<size_t>(std::atoll(argv[5])) : 6);
  }
  if (command == "topk") {
    return CmdTopK(target,
                   argc > 3 ? static_cast<uint32_t>(std::atoll(argv[3])) : 10);
  }
  if (command == "drug" && argc > 3) return CmdSearch(target, argv[3], true);
  if (command == "adr" && argc > 3) return CmdSearch(target, argv[3], false);
  if (command == "drilldown" && argc > 3) {
    return CmdDrillDown(target,
                        static_cast<uint32_t>(std::atoll(argv[3])) - 1);
  }
  if (command == "validate") return CmdValidate(target);
  if (command == "status") return CmdStatus(target);
  if (command == "check" && argc >= 5) {
    return CmdCheck(target, argv[3], std::atoi(argv[4]),
                    argc > 5 ? static_cast<size_t>(std::atoll(argv[5])) : 6);
  }
  return Usage(argv[0]);
}
