#ifndef MARAS_FAERS_DRUG_CLASSES_H_
#define MARAS_FAERS_DRUG_CLASSES_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "faers/preprocess.h"
#include "util/statusor.h"

namespace maras::faers {

// ---------------------------------------------------------------------------
// Therapeutic drug classes (ATC-style, coarse). The related work the paper
// cites (Tatonetti et al.) detects interactions *among drug classes*;
// aggregating the cleaned corpus to class granularity pools sparse
// same-mechanism combinations (every NSAID × every anticoagulant) into one
// strong class-level signal, at the cost of within-class resolution.
// ---------------------------------------------------------------------------

struct DrugClassEntry {
  std::string drug;        // canonical drug name
  std::string drug_class;  // e.g. "NSAID"
};

// Curated classes over this repository's drug vocabulary.
const std::vector<DrugClassEntry>& CuratedDrugClasses();

// Lookup table from canonical drug name to class.
class ClassMap {
 public:
  ClassMap() = default;

  void Add(std::string_view drug, std::string_view drug_class);

  // Class of `drug`, or nullopt when unclassified.
  std::optional<std::string> Lookup(std::string_view drug) const;

  size_t size() const { return map_.size(); }

  // Pre-loaded with CuratedDrugClasses().
  static ClassMap Curated();

 private:
  std::unordered_map<std::string, std::string> map_;
};

// Rewrites a cleaned corpus at class granularity: every classified drug
// item becomes its class item (prefixed "CLASS:"), unclassified drugs keep
// their own name, ADRs pass through, and duplicate class mentions within a
// report collapse. primary ids carry over, so drill-down from a class-level
// signal still reaches the raw reports.
maras::StatusOr<PreprocessResult> AggregateToClasses(
    const PreprocessResult& input, const ClassMap& classes);

}  // namespace maras::faers

#endif  // MARAS_FAERS_DRUG_CLASSES_H_
