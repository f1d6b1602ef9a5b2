#ifndef MARAS_MINING_ITEM_DICTIONARY_H_
#define MARAS_MINING_ITEM_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mining/itemset.h"
#include "util/statusor.h"
#include "util/string_util.h"

namespace maras::mining {

// Domain tag of an item. The paper partitions the item universe I into
// disjoint I_drug and I_ade (Section 3.1); the tag makes the
// antecedent/consequent split of a rule a constant-time check.
enum class ItemDomain : uint8_t {
  kDrug = 0,
  kAdr = 1,
};

// Interns item names to dense ItemIds and remembers each item's domain.
// Ids are assigned in insertion order and never change.
class ItemDictionary {
 public:
  ItemDictionary() = default;

  // Interns `name` under `domain`; returns the existing id when already
  // present. Re-registering an existing name under a different domain is an
  // error (drug and ADR vocabularies are disjoint by construction).
  maras::StatusOr<ItemId> Intern(std::string_view name, ItemDomain domain);

  // Id of `name`, or NotFound.
  maras::StatusOr<ItemId> Lookup(std::string_view name) const;

  // Name / domain of `id`; id must be valid.
  const std::string& Name(ItemId id) const;
  ItemDomain Domain(ItemId id) const;

  size_t size() const { return names_.size(); }
  size_t CountInDomain(ItemDomain domain) const;

  // Renders an itemset as "[A] [B] [C]" using item names.
  std::string Render(const Itemset& items) const;

 private:
  std::vector<std::string> names_;
  std::vector<ItemDomain> domains_;
  maras::StringMap<ItemId> index_;
};

}  // namespace maras::mining

#endif  // MARAS_MINING_ITEM_DICTIONARY_H_
