#include "core/knowledge_base.h"

#include <algorithm>

#include "faers/vocabulary.h"

namespace maras::core {

const char* NoveltyClassName(NoveltyClass klass) {
  switch (klass) {
    case NoveltyClass::kKnownInteraction:
      return "known interaction";
    case NoveltyClass::kNovelAdrForKnownCombination:
      return "novel ADR for known combination";
    case NoveltyClass::kNovelCombination:
      return "novel combination";
  }
  return "?";
}

void KnowledgeBase::AddInteraction(std::vector<std::string> drugs,
                                   std::vector<std::string> adrs,
                                   std::string source) {
  Entry entry;
  entry.drugs = std::move(drugs);
  entry.adrs = std::move(adrs);
  entry.source = std::move(source);
  std::sort(entry.drugs.begin(), entry.drugs.end());
  std::sort(entry.adrs.begin(), entry.adrs.end());
  entries_.push_back(std::move(entry));
}

bool KnowledgeBase::DrugsMatch(const Entry& entry, const DrugAdrRule& rule,
                               const mining::ItemDictionary& items) {
  for (const std::string& drug : entry.drugs) {
    bool found = false;
    for (mining::ItemId id : rule.drugs) {
      if (items.Name(id) == drug) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

NoveltyClass KnowledgeBase::Classify(
    const DrugAdrRule& rule, const mining::ItemDictionary& items) const {
  bool combination_known = false;
  for (const Entry& entry : entries_) {
    if (!DrugsMatch(entry, rule, items)) continue;
    combination_known = true;
    // Any overlap between the documented ADRs and the mined ADRs?
    for (mining::ItemId id : rule.adrs) {
      if (std::binary_search(entry.adrs.begin(), entry.adrs.end(),
                             items.Name(id))) {
        return NoveltyClass::kKnownInteraction;
      }
    }
  }
  return combination_known ? NoveltyClass::kNovelAdrForKnownCombination
                           : NoveltyClass::kNovelCombination;
}

std::vector<std::string> KnowledgeBase::MatchingSources(
    const DrugAdrRule& rule, const mining::ItemDictionary& items) const {
  std::vector<std::string> sources;
  for (const Entry& entry : entries_) {
    if (DrugsMatch(entry, rule, items)) sources.push_back(entry.source);
  }
  return sources;
}

KnowledgeBase CuratedKnowledgeBase() {
  KnowledgeBase kb;
  for (const faers::KnownInteraction& known : faers::KnownInteractions()) {
    kb.AddInteraction(known.drugs, known.adrs, known.provenance);
  }
  return kb;
}

}  // namespace maras::core
