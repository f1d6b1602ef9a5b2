// End-to-end benchmark driver for the MARAS pipeline: FAERS ASCII ingest ->
// cleaning -> FP-Growth mining -> closed itemsets -> drug=>ADR target rules
// -> concept lattice -> MCAC construction + exclusiveness ranking ->
// snapshot publish -> QueryEngine queries.
//
//   maras_perfbench --workload year|quarter --seed N --seconds S --trace 0|1
//
// Workloads (inputs are synthetic FAERS quarters generated from --seed and
// written to disk as FAERS ASCII files during set-up):
//   year     a batch pools four quarters through
//            MultiQuarterPipeline::RunAnalyzed (the governed surveillance
//            path) on two threads, publishes the ranked signals as snapshot
//            generations, swaps to the newest, then one closed-loop client
//            serves review requests against it for a fixed time.
//   quarter  a batch analyzes one paper-scale quarter (125k background
//            reports, the size of a 2014 FAERS extract) through
//            MarasAnalyzer::Analyze + RankMcacs on one thread, then
//            publishes and serves requests like `year`.
//
// Every workload runs every layer, so every metric exists on every workload.
// Requests are never served while a batch runs: on a host shared with other
// tenants, serving beside a concurrent re-analysis made both request and
// batch times switch between two speeds from one run to the next.
//
// Timings are taken from the quiet part of a run. On a 4-vCPU Xeon VM shared
// with other tenants, batches ran up to half again as long in episodes of
// five to fifteen seconds, and how much of a run such episodes covered
// differed from run to run. So a span
// metric is the lower quartile of that span's durations, and request_p50_us
// is the lower quartile, over the serving windows that follow each batch,
// of the window's median request latency. request_p99_us is the 99th
// percentile over every request of the run.
//
// With --trace 0 a batch calls the user-facing facade; with --trace 1 it
// runs the same analysis stage by stage with a span around each layer, and
// the per-layer figures are reported instead (a chrome://tracing file of
// the spans lands in .bench_work/). Every answer is checked: each batch
// against brute-force support counts and against the first batch's bytes,
// each query against an answer derived independently from the in-memory
// ranking. Progress goes to stderr; the last stdout line is the JSON result.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "core/analysis_stages.h"
#include "core/analyzer.h"
#include "core/checkpoint.h"
#include "core/multi_quarter.h"
#include "core/ranking.h"
#include "faers/ascii_format.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "serve/query_engine.h"
#include "serve/snapshot_store.h"
#include "util/delimited.h"
#include "util/random.h"
#include "util/run_context.h"
#include "util/thread_pool.h"

namespace {

using namespace maras;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr core::RankingMethod kMethod =
    core::RankingMethod::kExclusivenessConfidence;
// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 5;
// Each batch is published this many times, each time as a new generation.
// A quarter batch takes seconds, and one publish per batch left too few
// samples of this disk-bound step for a steady figure.
constexpr int kPublishesPerBatch = 4;
// Review requests are served for this long after each batch, a serving
// window. The host's speed also changes within a second, so requests spread
// over a window, rather than a burst of a few milliseconds, give a window
// median that repeats from one quiet window to the next.
constexpr double kServeSeconds = 0.3;
// The quantile of a run's samples that its timings report (see the top).
constexpr double kQuietQuantile = 0.25;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

void Expect(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Unwrap(StatusOr<T> value, const char* what) {
  Expect(value.status(), what);
  return *std::move(value);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  int quarters;              // quarters pooled into one batch
  size_t reports;            // background reports per generated quarter
  size_t min_support;
  size_t threads;            // quarter fan-out + mining threads per batch
};

constexpr Workload kWorkloads[] = {
    {"year", 4, 12000, 6, 2},
    {"quarter", 1, 125000, 30, 1},
};

core::AnalyzerOptions AnalyzerFor(const Workload& workload) {
  core::AnalyzerOptions options;
  options.mining.min_support = workload.min_support;
  options.mining.max_itemset_size = 7;
  options.mining.num_threads = workload.threads;
  return options;
}

// Same vocabulary scaling as the table/figure harnesses: 25k reports per
// quarter get 3000 drugs and 1100 ADRs.
faers::GeneratorConfig QuarterConfig(int quarter, size_t reports,
                                     uint64_t seed) {
  faers::GeneratorConfig config;
  config.seed = seed;
  config.year = 2014;
  config.quarter = quarter;
  config.n_reports = reports;
  config.n_drugs = reports / 10 + 500;
  config.n_adrs = reports * 36 / 1000 + 200;
  return config;
}

// ---------------------------------------------------------------------------
// Spans. Every timed region of a batch is recorded here, in both modes; the
// reported batch metrics are medians over span durations, so the printed
// numbers and the trace file come from one source.
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) /
         2.0;
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

// Spans of the driver's own thread; the library's worker threads run inside
// them.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void Record(const char* name, Clock::time_point start,
              Clock::time_point end) {
    spans_.push_back({name, start, end});
  }

  // Lower-quartile duration in milliseconds of the spans named `name`; 0 if
  // none.
  double QuietMs(std::string_view name) const {
    std::vector<double> ms;
    for (const SpanRecord& span : spans_) {
      if (name == span.name) {
        ms.push_back(MicrosBetween(span.start, span.end) / 1000.0);
      }
    }
    return Percentile(std::move(ms), kQuietQuantile);
  }

  // Chrome trace-event JSON (viewable in Perfetto / chrome://tracing).
  std::string ChromeJson() const {
    std::string out = "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& span = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f}%s\n",
                    span.name, MicrosBetween(origin_, span.start),
                    MicrosBetween(span.start, span.end),
                    i + 1 < spans_.size() ? "," : "");
      out += line;
    }
    return out + "]\n";
  }

 private:
  struct SpanRecord {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };

  const Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), name_(name), start_(Clock::now()) {}
  ~Span() { tracer_->Record(name_, start_, Clock::now()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Batches: ingest -> ... -> ranked signals.
// ---------------------------------------------------------------------------

struct BatchResult {
  faers::PreprocessResult corpus;  // the mined (pooled) corpus
  std::vector<core::RankedMcac> ranked;
  core::RuleSpaceStats stats;
  size_t min_support_used = 0;
  uint64_t hash = 0;  // FNV-1a of the encoded ranking
};

// Item counts at the layer boundaries of the last staged batch.
struct LayerCounts {
  size_t reports = 0;
  size_t frequent = 0;
  size_t closed = 0;
  size_t rules = 0;
};

std::vector<faers::QuarterDataset> Ingest(
    const std::vector<core::QuarterSource>& sources) {
  std::vector<faers::QuarterDataset> datasets;
  for (const core::QuarterSource& source : sources) {
    datasets.push_back(Unwrap(
        faers::ReadAsciiQuarterFromDir(source.directory, source.year,
                                       source.quarter),
        "ingest"));
  }
  return datasets;
}

// The facade a user runs: RunAnalyzed for pooled quarters, Analyze +
// RankMcacs for a single quarter.
void RunFacade(const Workload& workload,
               const std::vector<core::QuarterSource>& sources,
               BatchResult* out) {
  const core::AnalyzerOptions analyzer = AnalyzerFor(workload);
  std::vector<faers::QuarterDataset> datasets = Ingest(sources);
  if (datasets.size() > 1) {
    core::MultiQuarterOptions options;
    options.num_threads = workload.threads;
    core::MultiQuarterPipeline pipeline(options);
    core::SurveillanceAnalysis analysis =
        Unwrap(pipeline.RunAnalyzed(datasets, analyzer, kMethod), "analyze");
    out->corpus = std::move(analysis.run.merged);
    out->ranked = std::move(analysis.ranked);
    out->stats = analysis.stats;
    out->min_support_used = analysis.min_support_used;
    return;
  }
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  out->corpus = Unwrap(preprocessor.Process(datasets[0]), "preprocess");
  core::MarasAnalyzer maras_analyzer(analyzer);
  core::AnalysisResult analysis =
      Unwrap(maras_analyzer.Analyze(out->corpus), "analyze");
  out->ranked =
      core::RankMcacs(analysis.mcacs, kMethod, analyzer.exclusiveness);
  out->stats = analysis.stats;
  out->min_support_used = analyzer.mining.min_support;
}

// The same analysis one layer at a time, each inside its own span.
void RunStaged(const Workload& workload,
               const std::vector<core::QuarterSource>& sources, Tracer* tracer,
               BatchResult* out, LayerCounts* counts) {
  const core::AnalyzerOptions analyzer = AnalyzerFor(workload);
  const RunContext ctx;
  std::vector<faers::QuarterDataset> datasets;
  {
    Span span(tracer, "ingest");
    datasets = Ingest(sources);
  }
  {
    Span span(tracer, "prep");
    if (datasets.size() > 1) {
      core::MultiQuarterOptions options;
      options.num_threads = workload.threads;
      core::MultiQuarterPipeline pipeline(options);
      std::vector<std::optional<faers::PreprocessResult>> prepared(
          datasets.size());
      Expect(TryParallelFor(workload.threads, datasets.size(), ctx,
                            [&](size_t i) -> Status {
                              core::QuarterOutcome outcome;
                              outcome.label = datasets[i].Label();
                              MARAS_ASSIGN_OR_RETURN(
                                  prepared[i], pipeline.ProcessQuarter(
                                                   datasets[i], &outcome));
                              return Status::OK();
                            }),
             "prep");
      std::vector<const faers::PreprocessResult*> loaded;
      for (const auto& quarter : prepared) loaded.push_back(&*quarter);
      out->corpus = Unwrap(core::MergeQuarters(loaded), "merge");
    } else {
      faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
      out->corpus = Unwrap(preprocessor.Process(datasets[0]), "preprocess");
    }
  }
  const mining::ItemDictionary& items = out->corpus.items;
  const mining::TransactionDatabase& db = out->corpus.transactions;
  counts->reports = db.size();

  core::GovernedMineResult mined;
  {
    Span span(tracer, "mine");
    mined = Unwrap(core::MineWithDegradation(db, analyzer.mining,
                                             analyzer.degradation),
                   "mine");
  }
  counts->frequent = mined.frequent.size();
  core::ClosedCheckpoint closed;
  {
    Span span(tracer, "closed");
    closed = Unwrap(
        core::BuildClosedStage(std::move(mined), items, analyzer, ctx),
        "closed");
  }
  counts->closed = closed.closed.size();
  std::vector<core::DrugAdrRule> rules;
  {
    Span span(tracer, "rules");
    rules = Unwrap(
        core::BuildRulesStage(closed.closed, items, db, analyzer, ctx),
        "rules");
  }
  counts->rules = rules.size();
  mining::ConceptLattice lattice;
  const bool use_lattice = core::LatticeMcacEligible(analyzer);
  {
    Span span(tracer, "lattice");
    if (use_lattice) {
      lattice = Unwrap(core::BuildLatticeStage(closed.closed, analyzer, ctx),
                       "lattice");
    }
  }
  {
    Span span(tracer, "mcac");
    out->ranked = Unwrap(
        core::BuildRankedStage(rules, items, db, kMethod, analyzer, ctx,
                               use_lattice ? &lattice : nullptr),
        "mcac");
  }
  out->stats = closed.stats;
  out->stats.mcac_count = out->ranked.size();
  out->min_support_used = static_cast<size_t>(closed.min_support_used);
}

std::shared_ptr<const BatchResult> RunBatch(
    const Workload& workload, const std::vector<core::QuarterSource>& sources,
    bool staged, Tracer* tracer, LayerCounts* counts) {
  auto result = std::make_shared<BatchResult>();
  {
    Span span(tracer, "batch");
    if (staged) {
      RunStaged(workload, sources, tracer, result.get(), counts);
    } else {
      RunFacade(workload, sources, result.get());
    }
  }
  result->hash = core::Fnv1a64(core::EncodeRankedMcacs(result->ranked));
  return result;
}

void Publish(serve::SnapshotStore* store, const BatchResult& result,
             Tracer* tracer) {
  serve::SnapshotInputs inputs;
  inputs.items = &result.corpus.items;
  inputs.signals = &result.ranked;
  inputs.stats = result.stats;
  inputs.db = &result.corpus.transactions;
  inputs.primary_ids = &result.corpus.primary_ids;
  Span span(tracer, "publish");
  Expect(store->Publish(inputs), "publish");
}

// ---------------------------------------------------------------------------
// The oracle: answers derived from a batch's in-memory ranking and corpus
// without the library's support counting, lattice or snapshot code.
// ---------------------------------------------------------------------------

class Oracle {
 public:
  explicit Oracle(std::shared_ptr<const BatchResult> result);

  uint32_t signals() const {
    return static_cast<uint32_t>(result_->ranked.size());
  }
  const std::vector<std::string>& names(mining::ItemDomain side) const {
    return side == mining::ItemDomain::kDrug ? drug_names_ : adr_names_;
  }

  // Supports, confidences, domains and order of the ranking, checked
  // against brute-force counts over the corpus. Empty when correct.
  std::string CheckAnalysis() const;

  bool TopKMatches(uint32_t k, const std::vector<uint32_t>& got) const;
  bool PostingsMatch(mining::ItemDomain side, const std::string& name,
                     const std::vector<uint32_t>& got) const;
  bool ReportsMatch(uint32_t signal, const std::vector<uint64_t>& got) const;
  bool MaterializedMatches(uint32_t signal, const core::RankedMcac& got) const;
  bool NavigationMatches(uint32_t signal, bool up,
                         const std::vector<uint32_t>& got) const;

 private:
  // Ascending ids of the transactions containing every item of `items`.
  std::vector<uint32_t> Tids(const mining::Itemset& items) const;
  std::string CheckRule(const core::DrugAdrRule& rule) const;

  std::shared_ptr<const BatchResult> result_;
  std::vector<std::vector<uint32_t>> postings_;  // item -> ascending tids
  std::map<std::string, std::vector<uint32_t>, std::less<>> drug_signals_;
  std::map<std::string, std::vector<uint32_t>, std::less<>> adr_signals_;
  std::vector<std::string> drug_names_;
  std::vector<std::string> adr_names_;
};

Oracle::Oracle(std::shared_ptr<const BatchResult> result)
    : result_(std::move(result)) {
  const auto& transactions = result_->corpus.transactions.transactions();
  for (uint32_t tid = 0; tid < transactions.size(); ++tid) {
    for (mining::ItemId item : transactions[tid]) {
      if (item >= postings_.size()) postings_.resize(item + 1);
      postings_[item].push_back(tid);
    }
  }
  const mining::ItemDictionary& items = result_->corpus.items;
  for (uint32_t s = 0; s < result_->ranked.size(); ++s) {
    const core::DrugAdrRule& target = result_->ranked[s].mcac.target;
    for (mining::ItemId id : target.drugs) {
      drug_signals_[items.Name(id)].push_back(s);
    }
    for (mining::ItemId id : target.adrs) {
      adr_signals_[items.Name(id)].push_back(s);
    }
  }
  for (const auto& entry : drug_signals_) drug_names_.push_back(entry.first);
  for (const auto& entry : adr_signals_) adr_names_.push_back(entry.first);
}

std::vector<uint32_t> Oracle::Tids(const mining::Itemset& items) const {
  std::vector<uint32_t> tids;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i] >= postings_.size()) return {};
    const std::vector<uint32_t>& list = postings_[items[i]];
    if (i == 0) {
      tids = list;
      continue;
    }
    std::vector<uint32_t> kept;
    std::set_intersection(tids.begin(), tids.end(), list.begin(), list.end(),
                          std::back_inserter(kept));
    tids = std::move(kept);
  }
  return tids;
}

std::string Oracle::CheckRule(const core::DrugAdrRule& rule) const {
  const mining::ItemDictionary& items = result_->corpus.items;
  const size_t support = Tids(mining::Union(rule.drugs, rule.adrs)).size();
  const size_t antecedent = Tids(rule.drugs).size();
  const std::string text =
      items.Render(rule.drugs) + " => " + items.Render(rule.adrs);
  if (rule.drugs.empty() || rule.adrs.empty() || rule.support != support ||
      rule.antecedent_support != antecedent ||
      rule.consequent_support != Tids(rule.adrs).size()) {
    return "supports of " + text + " disagree with the corpus";
  }
  const double confidence =
      static_cast<double>(support) / static_cast<double>(antecedent);
  if (std::abs(rule.confidence - confidence) > 1e-12) {
    return "confidence of " + text + " disagrees with the corpus";
  }
  return "";
}

std::string Oracle::CheckAnalysis() const {
  const std::vector<core::RankedMcac>& ranked = result_->ranked;
  const mining::ItemDictionary& items = result_->corpus.items;
  if (ranked.empty()) return "no ranked signals";
  for (size_t i = 1; i < ranked.size(); ++i) {
    if (ranked[i].score > ranked[i - 1].score) {
      return "ranking out of score order at " + std::to_string(i);
    }
  }
  // The top three signals with their whole context, then a stride sample of
  // targets across the ranking.
  const size_t stride = std::max<size_t>(1, ranked.size() / 24);
  for (size_t i = 0; i < ranked.size(); ++i) {
    const bool with_context = i < 3;
    if (!with_context && i % stride != 0) continue;
    const core::Mcac& mcac = ranked[i].mcac;
    const core::DrugAdrRule& target = mcac.target;
    const std::string where = "signal " + std::to_string(i);
    if (target.drugs.size() < 2 ||
        target.support < result_->min_support_used) {
      return where + " is not a frequent multi-drug target";
    }
    for (mining::ItemId id : target.drugs) {
      if (items.Domain(id) != mining::ItemDomain::kDrug) {
        return where + " has an ADR among its drugs";
      }
    }
    for (mining::ItemId id : target.adrs) {
      if (items.Domain(id) != mining::ItemDomain::kAdr) {
        return where + " has a drug among its ADRs";
      }
    }
    std::string error = CheckRule(target);
    if (!error.empty()) return error;
    if (!with_context) continue;
    for (size_t level = 0; level < mcac.levels.size(); ++level) {
      for (const core::DrugAdrRule& context : mcac.levels[level]) {
        if (context.drugs.size() != level + 1 ||
            context.adrs != target.adrs ||
            !std::includes(target.drugs.begin(), target.drugs.end(),
                           context.drugs.begin(), context.drugs.end())) {
          return "context rule outside " + where;
        }
        error = CheckRule(context);
        if (!error.empty()) return error;
      }
    }
  }
  return "";
}

bool Oracle::TopKMatches(uint32_t k, const std::vector<uint32_t>& got) const {
  const uint32_t n = std::min(k, signals());
  if (got.size() != n) return false;
  for (uint32_t i = 0; i < n; ++i) {
    if (got[i] != i) return false;
  }
  return true;
}

bool Oracle::PostingsMatch(mining::ItemDomain side, const std::string& name,
                           const std::vector<uint32_t>& got) const {
  const auto& index =
      side == mining::ItemDomain::kDrug ? drug_signals_ : adr_signals_;
  auto it = index.find(name);
  return it != index.end() && it->second == got;
}

bool Oracle::ReportsMatch(uint32_t signal,
                          const std::vector<uint64_t>& got) const {
  const core::DrugAdrRule& target = result_->ranked[signal].mcac.target;
  std::vector<uint64_t> expected;
  for (uint32_t tid : Tids(mining::Union(target.drugs, target.adrs))) {
    expected.push_back(result_->corpus.primary_ids[tid]);
  }
  return got == expected;
}

bool Oracle::MaterializedMatches(uint32_t signal,
                                 const core::RankedMcac& got) const {
  return core::EncodeRankedMcacs({got}) ==
         core::EncodeRankedMcacs({result_->ranked[signal]});
}

// The covering step up (fewer drugs) or down (more drugs) among the
// same-ADR signals, in ascending index order.
bool Oracle::NavigationMatches(uint32_t signal, bool up,
                               const std::vector<uint32_t>& got) const {
  const std::vector<core::RankedMcac>& ranked = result_->ranked;
  const auto below = [](const mining::Itemset& a, const mining::Itemset& b) {
    return a.size() < b.size() &&
           std::includes(b.begin(), b.end(), a.begin(), a.end());
  };
  // True when `to` is reachable from `from` in the navigation direction.
  const auto step = [&](uint32_t from, uint32_t to) {
    const mining::Itemset& a = ranked[from].mcac.target.drugs;
    const mining::Itemset& b = ranked[to].mcac.target.drugs;
    return up ? below(b, a) : below(a, b);
  };
  const mining::Itemset& adrs = ranked[signal].mcac.target.adrs;
  std::vector<uint32_t> candidates;
  for (uint32_t t = 0; t < ranked.size(); ++t) {
    if (ranked[t].mcac.target.adrs == adrs && step(signal, t)) {
      candidates.push_back(t);
    }
  }
  std::vector<uint32_t> expected;
  for (uint32_t t : candidates) {
    // Covering: no other candidate lies strictly between signal and t.
    const bool covering =
        std::none_of(candidates.begin(), candidates.end(),
                     [&](uint32_t u) { return u != t && step(u, t); });
    if (covering) expected.push_back(t);
  }
  return got == expected;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

enum QueryKind {
  kTopK,
  kDrug,
  kAdr,
  kReports,
  kMaterialize,
  kNavigate,
  kQueryKinds
};
constexpr const char* kQueryMetric[kQueryKinds] = {
    "q_topk_us",    "q_drug_us",        "q_adr_us",
    "q_reports_us", "q_materialize_us", "q_navigate_us"};
// One review request, the unit a signal reviewer waits for: an overview,
// searches by drug and by reaction, drill-downs to the supporting reports,
// opened clusters, and steps up or down the lattice. The end-to-end latency
// is per request rather than per query because a single query takes well
// under a microsecond, close to the clock's own cost, and because where the
// median of a mix of kinds falls shifts with the data.
constexpr uint32_t kQueriesPerRequest[kQueryKinds] = {2, 5, 3, 4, 4, 2};
constexpr uint32_t kTopKSize = 20;
constexpr size_t kPlannedRequests = 1 << 14;

struct PlannedQuery {
  QueryKind kind;
  uint32_t pick;  // resolves to a signal index or a name in each generation
};
using Request = std::vector<PlannedQuery>;

std::vector<Request> MakePlan(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5151);
  std::vector<Request> plan(kPlannedRequests);
  for (Request& request : plan) {
    for (int kind = 0; kind < kQueryKinds; ++kind) {
      for (uint32_t i = 0; i < kQueriesPerRequest[kind]; ++i) {
        request.push_back({static_cast<QueryKind>(kind),
                           static_cast<uint32_t>(rng.Next() >> 32)});
      }
    }
  }
  return plan;
}

// Request latencies, each serving window's median of them, per-kind query
// latencies (traced runs only), and failure and wrong-answer counts.
struct QueryLog {
  bool by_kind = false;
  std::vector<double> request_us;
  std::vector<double> window_p50_us;
  std::vector<double> us[kQueryKinds];
  size_t attempted = 0;
  size_t failed = 0;
  size_t wrong = 0;
  std::string first_error;
};

// The served generation: its query engine and the oracle of the batch it
// was published from.
struct Served {
  std::unique_ptr<serve::QueryEngine> engine;
  const Oracle* oracle = nullptr;
  uint64_t generation = 0;
};

// One query's answer. Answers are checked once the whole request is served,
// so the checks do not evict the engine's data between its queries.
struct Answer {
  uint32_t signal = 0;
  const std::string* name = nullptr;  // the drug or ADR searched for
  bool ok = true;
  std::vector<uint32_t> ids;      // top-k, postings, navigation
  std::vector<uint64_t> reports;  // drill-down
  core::RankedMcac mcac;          // materialize
};

mining::ItemDomain SideOf(QueryKind kind) {
  return kind == kDrug ? mining::ItemDomain::kDrug : mining::ItemDomain::kAdr;
}

bool NavigatesUp(const PlannedQuery& query) { return (query.pick >> 31) != 0; }

// Runs one query against `served` and returns its latency.
double Ask(const PlannedQuery& query, const Served& served, Answer* answer) {
  const serve::QueryEngine& engine = *served.engine;
  const Oracle& oracle = *served.oracle;
  const uint32_t signal = query.pick % oracle.signals();
  answer->signal = signal;
  if (query.kind == kDrug || query.kind == kAdr) {
    const std::vector<std::string>& names = oracle.names(SideOf(query.kind));
    answer->name = &names[query.pick % names.size()];
  }
  const auto keep = [answer](auto got, auto* slot) {
    answer->ok = got.ok();
    if (answer->ok) *slot = *std::move(got);
  };
  const auto start = Clock::now();
  switch (query.kind) {
    case kTopK:
      answer->ids = engine.TopK(kTopKSize);
      break;
    case kDrug:
      keep(engine.SignalsForDrug(*answer->name), &answer->ids);
      break;
    case kAdr:
      keep(engine.SignalsForAdr(*answer->name), &answer->ids);
      break;
    case kReports:
      keep(engine.SupportingReportIds(signal), &answer->reports);
      break;
    case kMaterialize:
      keep(engine.Materialize(signal), &answer->mcac);
      break;
    case kNavigate:
      keep(NavigatesUp(query) ? engine.Generalize(signal)
                              : engine.Specialize(signal),
           &answer->ids);
      break;
    case kQueryKinds:
      break;
  }
  return MicrosBetween(start, Clock::now());
}

bool Correct(const PlannedQuery& query, const Answer& answer,
             const Oracle& oracle) {
  switch (query.kind) {
    case kTopK:
      return oracle.TopKMatches(kTopKSize, answer.ids);
    case kDrug:
    case kAdr:
      return oracle.PostingsMatch(SideOf(query.kind), *answer.name,
                                  answer.ids);
    case kReports:
      return oracle.ReportsMatch(answer.signal, answer.reports);
    case kMaterialize:
      return oracle.MaterializedMatches(answer.signal, answer.mcac);
    case kNavigate:
      return oracle.NavigationMatches(answer.signal, NavigatesUp(query),
                                      answer.ids);
    case kQueryKinds:
      break;
  }
  return false;
}

// Serves one request, logs its latency, then checks every answer.
void RunRequest(const Request& request, const Served& served, QueryLog* log) {
  std::vector<Answer> answers(request.size());
  double us = 0.0;
  for (size_t i = 0; i < request.size(); ++i) {
    const double query_us = Ask(request[i], served, &answers[i]);
    if (log->by_kind) log->us[request[i].kind].push_back(query_us);
    us += query_us;
  }
  log->request_us.push_back(us);

  for (size_t i = 0; i < request.size(); ++i) {
    const Answer& answer = answers[i];
    ++log->attempted;
    if (!answer.ok) ++log->failed;
    if (answer.ok && Correct(request[i], answer, *served.oracle)) continue;
    ++log->wrong;
    if (log->first_error.empty()) {
      log->first_error = std::string("wrong answer to ") +
                         kQueryMetric[request[i].kind] + " for signal " +
                         std::to_string(answer.signal) + " of generation " +
                         std::to_string(served.generation);
    }
  }
}

// Serves the store's newest generation, whose answers `oracle` gives.
void Swap(serve::SnapshotStore* store, const Oracle* oracle, Served* served,
          Tracer* tracer) {
  Span span(tracer, "swap");
  auto snapshot = Unwrap(store->Acquire(), "acquire");
  served->engine = std::make_unique<serve::QueryEngine>(
      Unwrap(serve::QueryEngine::Create(std::move(snapshot)), "engine"));
  served->generation = store->current_generation();
  served->oracle = oracle;
}

// ---------------------------------------------------------------------------
// Set-up and the measured run
// ---------------------------------------------------------------------------

struct Inputs {
  fs::path dir;
  std::vector<core::QuarterSource> sources;  // one per generated quarter
  std::unique_ptr<serve::SnapshotStore> store;
};

Inputs SetUp(const Workload& workload, uint64_t seed, const fs::path& dir) {
  Inputs inputs;
  inputs.dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir / "faers");
  fs::create_directories(dir / "store");
  for (int q = 1; q <= workload.quarters; ++q) {
    faers::SyntheticGenerator generator(
        QuarterConfig(q, workload.reports, seed));
    faers::QuarterDataset dataset = Unwrap(generator.Generate(), "generate");
    Expect(faers::WriteAsciiQuarterToDir(dataset, (dir / "faers").string()),
           "write quarter");
    inputs.sources.push_back({(dir / "faers").string(), 2014, q});
  }
  serve::SnapshotStore::Options store_options;
  store_options.dir = (dir / "store").string();
  inputs.store = std::make_unique<serve::SnapshotStore>(store_options);
  return inputs;
}

struct RunOutcome {
  size_t batches = 0;
  size_t batch_failures = 0;  // wrong or nondeterministic batch output
  std::string first_error;
  QueryLog queries;
  LayerCounts counts;
};

void NoteBatchError(RunOutcome* outcome, const std::string& error) {
  ++outcome->batch_failures;
  if (outcome->first_error.empty()) outcome->first_error = error;
}

// Size of the newest generation file (names are zero-padded, so the
// greatest name is the newest).
size_t NewestSnapshotBytes(const fs::path& store_dir) {
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(store_dir)) {
    if (entry.path().extension() == ".msnp" && entry.path() > newest) {
      newest = entry.path();
    }
  }
  return newest.empty() ? 0 : static_cast<size_t>(fs::file_size(newest));
}

// batch -> publishes -> swap -> request burst, until time is up.
void RunWorkload(const Workload& workload, Inputs* inputs, bool staged,
                 double seconds, const std::vector<Request>& plan,
                 Tracer* tracer, RunOutcome* outcome) {
  const auto start = Clock::now();
  std::unique_ptr<Oracle> oracle;
  uint64_t first_hash = 0;
  size_t next_request = 0;
  do {
    std::shared_ptr<const BatchResult> result =
        RunBatch(workload, inputs->sources, staged, tracer, &outcome->counts);
    ++outcome->batches;
    if (oracle == nullptr) {
      first_hash = result->hash;
      oracle = std::make_unique<Oracle>(result);
      std::string error = oracle->CheckAnalysis();
      if (!error.empty()) NoteBatchError(outcome, error);
    } else if (result->hash != first_hash) {
      NoteBatchError(outcome, "batch output differs from the first batch");
    }
    for (int i = 0; i < kPublishesPerBatch; ++i) {
      Publish(inputs->store.get(), *result, tracer);
    }
    Served served;
    Swap(inputs->store.get(), oracle.get(), &served, tracer);
    QueryLog& log = outcome->queries;
    const size_t window_begin = log.request_us.size();
    const auto serve_start = Clock::now();
    do {
      RunRequest(plan[next_request++ % plan.size()], served, &log);
    } while (SecondsSince(serve_start) < kServeSeconds);
    log.window_p50_us.push_back(Median(std::vector<double>(
        log.request_us.begin() + window_begin, log.request_us.end())));
  } while (SecondsSince(start) < seconds);
  std::fprintf(stderr, "perfbench: %s result-hash %016llx\n", workload.name,
               static_cast<unsigned long long>(first_hash));
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Shortest decimal form that round-trips: every digit as measured.
std::string Number(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Peak resident set size of this process in MiB.
double PeakRssMib() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.seconds <= 0) {
    Die("usage: maras_perfbench --workload year|quarter --seed N "
        "--seconds S --trace 0|1");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) Die("unknown workload " + args.workload);

  const fs::path work = fs::path(".bench_work") /
                        (std::string(workload->name) + "-" +
                         std::to_string(::getpid()));
  std::vector<double> setup_s;
  Inputs inputs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    inputs = Inputs{};  // release the previous repeat's store first
    const auto start = Clock::now();
    inputs = SetUp(*workload, args.seed, work);
    setup_s.push_back(SecondsSince(start));
  }
  std::fprintf(stderr, "perfbench: %s set-up %.3f s (median of %d)\n",
               workload->name, Median(setup_s), kSetupRepeats);

  Tracer tracer(Clock::now());
  const std::vector<Request> plan = MakePlan(args.seed);
  RunOutcome outcome;
  outcome.queries.by_kind = args.trace;
  // Reserved pages count towards the peak RSS only once filled, so the log
  // does not make it step with the number of requests served.
  outcome.queries.request_us.reserve(1 << 20);
  RunWorkload(*workload, &inputs, args.trace, args.seconds, plan, &tracer,
              &outcome);
  const size_t snapshot_bytes = NewestSnapshotBytes(inputs.dir / "store");
  inputs = Inputs{};
  fs::remove_all(work);

  const QueryLog& q = outcome.queries;
  const bool correct =
      outcome.batch_failures == 0 && q.wrong == 0 && q.failed == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: INCORRECT: %s\n",
                 (outcome.first_error.empty() ? q.first_error
                                              : outcome.first_error)
                     .c_str());
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"batch_s", tracer.QuietMs("batch") / 1000.0, "s"},
        {"publish_ms", tracer.QuietMs("publish"), "ms"},
        {"request_p50_us", Percentile(q.window_p50_us, kQuietQuantile), "us"},
        {"request_p99_us", Percentile(q.request_us, 0.99), "us"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    const std::string trace_path = ".bench_work/trace-" +
                                   std::string(workload->name) + "-seed" +
                                   std::to_string(args.seed) + ".json";
    Expect(AtomicWriteStringToFile(trace_path, tracer.ChromeJson()),
           "write trace");
    std::fprintf(stderr, "perfbench: spans written to %s\n",
                 trace_path.c_str());
    metrics = {
        {"ingest_ms", tracer.QuietMs("ingest"), "ms"},
        {"prep_ms", tracer.QuietMs("prep"), "ms"},
        {"mine_ms", tracer.QuietMs("mine"), "ms"},
        {"closed_ms", tracer.QuietMs("closed"), "ms"},
        {"rules_ms", tracer.QuietMs("rules"), "ms"},
        {"lattice_ms", tracer.QuietMs("lattice"), "ms"},
        {"mcac_ms", tracer.QuietMs("mcac"), "ms"},
        {"swap_ms", tracer.QuietMs("swap"), "ms"},
    };
    for (int kind = 0; kind < kQueryKinds; ++kind) {
      metrics.push_back(
          {kQueryMetric[kind], Percentile(q.us[kind], 0.50), "us"});
    }
    const LayerCounts& c = outcome.counts;
    const auto count = [](size_t n) { return static_cast<double>(n); };
    metrics.push_back({"reports", count(c.reports), "count"});
    metrics.push_back({"frequent_itemsets", count(c.frequent), "count"});
    metrics.push_back({"closed_itemsets", count(c.closed), "count"});
    metrics.push_back({"target_rules", count(c.rules), "count"});
    metrics.push_back(
        {"snapshot_kib", static_cast<double>(snapshot_bytes) / 1024.0, "KiB"});
    metrics.push_back({"batches", count(outcome.batches), "count"});
    metrics.push_back({"queries", count(q.attempted), "count"});
  }
  PrintResult(correct, outcome.batches + q.attempted, q.failed, metrics);
  return 0;
}
