#ifndef MARAS_CORE_KNOWLEDGE_BASE_H_
#define MARAS_CORE_KNOWLEDGE_BASE_H_

#include <string>
#include <vector>

#include "core/mcac.h"
#include "mining/item_dictionary.h"

namespace maras::core {

// ---------------------------------------------------------------------------
// Domain-knowledge integration (Sections 1.3/1.4): "the system might select
// a drug-drug interaction as interesting but it might not be interesting
// for the decision makers because it is already known, and they want to
// know the unknown drug-drug interactions." A KnowledgeBase holds the
// already-documented interactions (e.g. from Drugs.com/DrugBank labels) and
// classifies each mined cluster as known, a novel ADR for a known
// combination, or an entirely novel combination — the evaluator's filter.
// ---------------------------------------------------------------------------

enum class NoveltyClass {
  // The drug combination and at least one of its ADRs are documented.
  kKnownInteraction,
  // The combination is documented but none of the mined ADRs are — an
  // unknown ADR of a known interaction.
  kNovelAdrForKnownCombination,
  // No documented interaction covers this combination.
  kNovelCombination,
};

const char* NoveltyClassName(NoveltyClass klass);

class KnowledgeBase {
 public:
  KnowledgeBase() = default;

  // Registers a documented interaction by canonical names. `source` is a
  // free-form provenance note (label text, literature citation).
  void AddInteraction(std::vector<std::string> drugs,
                      std::vector<std::string> adrs, std::string source);

  size_t size() const { return entries_.size(); }

  // Classifies a mined rule. A documented entry matches when its drug set
  // is a subset of the rule's drugs (a documented pair inside a mined
  // triple is still "known").
  NoveltyClass Classify(const DrugAdrRule& rule,
                        const mining::ItemDictionary& items) const;

  // Provenance notes of every documented entry matching the rule's drugs.
  std::vector<std::string> MatchingSources(
      const DrugAdrRule& rule, const mining::ItemDictionary& items) const;

 private:
  struct Entry {
    std::vector<std::string> drugs;  // canonical, sorted
    std::vector<std::string> adrs;   // canonical, sorted
    std::string source;
  };

  // True when every drug of `entry` appears in `rule`'s antecedent.
  static bool DrugsMatch(const Entry& entry, const DrugAdrRule& rule,
                         const mining::ItemDictionary& items);

  std::vector<Entry> entries_;
};

// A KnowledgeBase pre-loaded with this repository's curated literature
// interactions (faers::KnownInteractions()).
KnowledgeBase CuratedKnowledgeBase();

}  // namespace maras::core

#endif  // MARAS_CORE_KNOWLEDGE_BASE_H_
