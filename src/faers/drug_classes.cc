#include "faers/drug_classes.h"

namespace maras::faers {

const std::vector<DrugClassEntry>& CuratedDrugClasses() {
  static const auto* entries = new std::vector<DrugClassEntry>{
      // Analgesics / anti-inflammatories.
      {"ASPIRIN", "NSAID"},
      {"IBUPROFEN", "NSAID"},
      {"NAPROXEN", "NSAID"},
      {"DICLOFENAC", "NSAID"},
      {"CELECOXIB", "NSAID"},
      {"METAMIZOLE", "NONOPIOID ANALGESIC"},
      {"ACETAMINOPHEN", "NONOPIOID ANALGESIC"},
      {"TRAMADOL", "OPIOID"},
      {"OXYCODONE", "OPIOID"},
      {"MORPHINE", "OPIOID"},
      {"FENTANYL", "OPIOID"},
      {"HYDROMORPHONE", "OPIOID"},
      // Anticoagulants / antiplatelets.
      {"WARFARIN", "ANTICOAGULANT"},
      {"RIVAROXABAN", "ANTICOAGULANT"},
      {"APIXABAN", "ANTICOAGULANT"},
      {"CLOPIDOGREL", "ANTIPLATELET"},
      // Acid suppression.
      {"PRILOSEC", "PPI"},
      {"PREVACID", "PPI"},
      {"NEXIUM", "PPI"},
      {"OMEPRAZOLE", "PPI"},
      {"PANTOPRAZOLE", "PPI"},
      {"ZANTAC", "H2 BLOCKER"},
      {"PEPCID", "H2 BLOCKER"},
      {"RANITIDINE", "H2 BLOCKER"},
      {"TUMS", "ANTACID"},
      {"MYLANTA", "ANTACID"},
      {"ROLAIDS", "ANTACID"},
      // Immunosuppressants / transplant.
      {"PROGRAF", "IMMUNOSUPPRESSANT"},
      {"CYCLOSPORINE", "IMMUNOSUPPRESSANT"},
      {"SIROLIMUS", "IMMUNOSUPPRESSANT"},
      {"EVEROLIMUS", "IMMUNOSUPPRESSANT"},
      {"MYCOPHENOLATE", "IMMUNOSUPPRESSANT"},
      {"AZATHIOPRINE", "IMMUNOSUPPRESSANT"},
      {"METHOTREXATE", "ANTIMETABOLITE"},
      {"FLUDARABINE", "ANTIMETABOLITE"},
      // Corticosteroids.
      {"PREDNISONE", "CORTICOSTEROID"},
      {"PREDNISOLONE", "CORTICOSTEROID"},
      {"METHYLPREDNISOLONE", "CORTICOSTEROID"},
      {"DEXAMETHASONE", "CORTICOSTEROID"},
      {"HYDROCORTISONE", "CORTICOSTEROID"},
      // Cardio.
      {"ATORVASTATIN", "STATIN"},
      {"SIMVASTATIN", "STATIN"},
      {"LISINOPRIL", "ACE INHIBITOR"},
      {"RAMIPRIL", "ACE INHIBITOR"},
      {"LOSARTAN", "ARB"},
      {"VALSARTAN", "ARB"},
      {"METOPROLOL", "BETA BLOCKER"},
      {"CARVEDILOL", "BETA BLOCKER"},
      {"AMLODIPINE", "CALCIUM CHANNEL BLOCKER"},
      {"FUROSEMIDE", "DIURETIC"},
      {"HYDROCHLOROTHIAZIDE", "DIURETIC"},
      {"DIGOXIN", "CARDIAC GLYCOSIDE"},
      {"AMIODARONE", "ANTIARRHYTHMIC"},
      // Psych / neuro.
      {"SERTRALINE", "SSRI"},
      {"FLUOXETINE", "SSRI"},
      {"CITALOPRAM", "SSRI"},
      {"ESCITALOPRAM", "SSRI"},
      {"DULOXETINE", "SNRI"},
      {"VENLAFAXINE", "SNRI"},
      {"ALPRAZOLAM", "BENZODIAZEPINE"},
      {"LORAZEPAM", "BENZODIAZEPINE"},
      {"CLONAZEPAM", "BENZODIAZEPINE"},
      {"DIAZEPAM", "BENZODIAZEPINE"},
      {"ZOLPIDEM", "HYPNOTIC"},
      {"AMBIEN", "HYPNOTIC"},
      {"QUETIAPINE", "ANTIPSYCHOTIC"},
      {"RISPERIDONE", "ANTIPSYCHOTIC"},
      {"OLANZAPINE", "ANTIPSYCHOTIC"},
      {"ARIPIPRAZOLE", "ANTIPSYCHOTIC"},
      {"GABAPENTIN", "ANTICONVULSANT"},
      {"PREGABALIN", "ANTICONVULSANT"},
      {"LAMOTRIGINE", "ANTICONVULSANT"},
      {"LEVETIRACETAM", "ANTICONVULSANT"},
      {"CARBAMAZEPINE", "ANTICONVULSANT"},
      {"PHENYTOIN", "ANTICONVULSANT"},
      {"VALPROATE", "ANTICONVULSANT"},
      {"TOPIRAMATE", "ANTICONVULSANT"},
      // Respiratory / allergy.
      {"XOLAIR", "BIOLOGIC"},
      {"SINGULAIR", "LEUKOTRIENE ANTAGONIST"},
      // Oncology / bone.
      {"ZOMETA", "BISPHOSPHONATE"},
      {"MELPHALAN", "ALKYLATING AGENT"},
      {"CYCLOPHOSPHAMIDE", "ALKYLATING AGENT"},
      {"CISPLATIN", "PLATINUM AGENT"},
      {"CARBOPLATIN", "PLATINUM AGENT"},
      {"PACLITAXEL", "TAXANE"},
      {"DOCETAXEL", "TAXANE"},
      // Anti-infectives.
      {"CIPROFLOXACIN", "FLUOROQUINOLONE"},
      {"LEVOFLOXACIN", "FLUOROQUINOLONE"},
      {"AMOXICILLIN", "PENICILLIN"},
      {"AZITHROMYCIN", "MACROLIDE"},
      {"CLARITHROMYCIN", "MACROLIDE"},
      {"FLUCONAZOLE", "AZOLE ANTIFUNGAL"},
      {"KETOCONAZOLE", "AZOLE ANTIFUNGAL"},
      {"TENOFOVIR", "ANTIRETROVIRAL"},
      {"EMTRICITABINE", "ANTIRETROVIRAL"},
      {"EFAVIRENZ", "ANTIRETROVIRAL"},
      {"RITONAVIR", "ANTIRETROVIRAL"},
      {"LOPINAVIR", "ANTIRETROVIRAL"},
  };
  return *entries;
}

void ClassMap::Add(std::string_view drug, std::string_view drug_class) {
  map_[std::string(drug)] = std::string(drug_class);
}

std::optional<std::string> ClassMap::Lookup(std::string_view drug) const {
  auto it = map_.find(std::string(drug));
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

ClassMap ClassMap::Curated() {
  ClassMap map;
  for (const DrugClassEntry& entry : CuratedDrugClasses()) {
    map.Add(entry.drug, entry.drug_class);
  }
  return map;
}

maras::StatusOr<PreprocessResult> AggregateToClasses(
    const PreprocessResult& input, const ClassMap& classes) {
  PreprocessResult output;
  output.stats = input.stats;
  output.primary_ids = input.primary_ids;

  // Old item id -> new item id, computed once.
  std::vector<mining::ItemId> remap(input.items.size());
  for (size_t old_id = 0; old_id < input.items.size(); ++old_id) {
    auto id = static_cast<mining::ItemId>(old_id);
    const std::string& name = input.items.Name(id);
    mining::ItemDomain domain = input.items.Domain(id);
    std::string new_name = name;
    if (domain == mining::ItemDomain::kDrug) {
      if (auto drug_class = classes.Lookup(name); drug_class.has_value()) {
        new_name = "CLASS:" + *drug_class;
      }
    }
    MARAS_ASSIGN_OR_RETURN(remap[old_id],
                           output.items.Intern(new_name, domain));
  }

  std::vector<mining::Itemset> transactions;
  transactions.reserve(input.transactions.size());
  for (const mining::Itemset& source : input.transactions.transactions()) {
    mining::Itemset transaction;
    transaction.reserve(source.size());
    for (mining::ItemId old_id : source) {
      transaction.push_back(remap[old_id]);
    }
    transactions.push_back(std::move(transaction));
  }
  // Build sorts and collapses duplicate class mentions.
  output.transactions =
      mining::TransactionDatabase::Build(std::move(transactions));
  output.stats.distinct_drugs =
      output.items.CountInDomain(mining::ItemDomain::kDrug);
  output.stats.distinct_adrs =
      output.items.CountInDomain(mining::ItemDomain::kAdr);
  return output;
}

}  // namespace maras::faers
