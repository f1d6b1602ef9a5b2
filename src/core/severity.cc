#include "core/severity.h"

#include <string>
#include <unordered_map>

namespace maras::core {

namespace {

// Curated severity lexicon over the preferred terms this repository's
// vocabulary uses (extend freely; unknown terms default to kModerate).
const std::unordered_map<std::string, Severity>& Lexicon() {
  static const auto* lexicon = new std::unordered_map<std::string, Severity>{
      // Fatal / directly life-ending.
      {"DEATH", Severity::kFatal},
      {"COMPLETED SUICIDE", Severity::kFatal},
      {"CARDIAC ARREST", Severity::kFatal},
      {"TOXIC EPIDERMAL NECROLYSIS", Severity::kFatal},
      {"TORSADE DE POINTES", Severity::kFatal},
      // Severe: life-threatening, hospitalization, lasting disability.
      {"ACUTE RENAL FAILURE", Severity::kSevere},
      {"RENAL FAILURE", Severity::kSevere},
      {"HEPATIC FAILURE", Severity::kSevere},
      {"HAEMORRHAGE", Severity::kSevere},
      {"GASTROINTESTINAL HAEMORRHAGE", Severity::kSevere},
      {"MYOCARDIAL INFARCTION", Severity::kSevere},
      {"CEREBROVASCULAR ACCIDENT", Severity::kSevere},
      {"PULMONARY EMBOLISM", Severity::kSevere},
      {"DEEP VEIN THROMBOSIS", Severity::kSevere},
      {"ANAPHYLACTIC REACTION", Severity::kSevere},
      {"STEVENS-JOHNSON SYNDROME", Severity::kSevere},
      // The normalizer maps '-' to ' ', so the interned form differs.
      {"STEVENS JOHNSON SYNDROME", Severity::kSevere},
      {"SEPSIS", Severity::kSevere},
      {"PANCYTOPENIA", Severity::kSevere},
      {"FEBRILE NEUTROPENIA", Severity::kSevere},
      {"CONVULSION", Severity::kSevere},
      {"SUICIDAL IDEATION", Severity::kSevere},
      {"RHABDOMYOLYSIS", Severity::kSevere},
      {"OSTEONECROSIS OF JAW", Severity::kSevere},
      {"ACUTE GRAFT VERSUS HOST DISEASE", Severity::kSevere},
      {"CHRONIC GRAFT VERSUS HOST DISEASE", Severity::kSevere},
      {"QT PROLONGED", Severity::kSevere},
      {"RENAL IMPAIRMENT", Severity::kSevere},
      {"ANGIOEDEMA", Severity::kSevere},
      {"OVERDOSE", Severity::kSevere},
      // Mild: discomfort without intervention.
      {"NAUSEA", Severity::kMild},
      {"HEADACHE", Severity::kMild},
      {"DIZZINESS", Severity::kMild},
      {"FATIGUE", Severity::kMild},
      {"RASH", Severity::kMild},
      {"PRURITUS", Severity::kMild},
      {"INSOMNIA", Severity::kMild},
      {"SOMNOLENCE", Severity::kMild},
      {"CONSTIPATION", Severity::kMild},
      {"DYSGEUSIA", Severity::kMild},
      {"TINNITUS", Severity::kMild},
      {"ALOPECIA", Severity::kMild},
      {"WEIGHT DECREASED", Severity::kMild},
      {"WEIGHT INCREASED", Severity::kMild},
      {"PAIN", Severity::kMild},
      {"ANXIETY", Severity::kMild},
      // Everything else defaults to kModerate via SeverityOfTerm.
  };
  return *lexicon;
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kMild:
      return "mild";
    case Severity::kModerate:
      return "moderate";
    case Severity::kSevere:
      return "severe";
    case Severity::kFatal:
      return "fatal";
  }
  return "?";
}

Severity SeverityOfTerm(std::string_view preferred_term) {
  auto it = Lexicon().find(std::string(preferred_term));
  return it == Lexicon().end() ? Severity::kModerate : it->second;
}

Severity MaxSeverity(const DrugAdrRule& rule,
                     const mining::ItemDictionary& items) {
  Severity highest = Severity::kMild;
  for (mining::ItemId id : rule.adrs) {
    Severity s = SeverityOfTerm(items.Name(id));
    if (static_cast<int>(s) > static_cast<int>(highest)) highest = s;
  }
  return highest;
}

}  // namespace maras::core
