#include "mining/item_dictionary.h"

#include "util/logging.h"

namespace maras::mining {

maras::StatusOr<ItemId> ItemDictionary::Intern(std::string_view name,
                                               ItemDomain domain) {
  if (auto it = index_.find(name); it != index_.end()) {
    if (domains_[it->second] != domain) {
      return maras::Status::InvalidArgument(
          "item '" + std::string(name) +
          "' already registered in a different domain");
    }
    return it->second;
  }
  ItemId id = static_cast<ItemId>(names_.size());
  index_.emplace(name, id);
  names_.emplace_back(name);
  domains_.push_back(domain);
  return id;
}

maras::StatusOr<ItemId> ItemDictionary::Lookup(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return maras::Status::NotFound("unknown item: " + std::string(name));
  }
  return it->second;
}

const std::string& ItemDictionary::Name(ItemId id) const {
  MARAS_CHECK(id < names_.size()) << "invalid item id " << id;
  return names_[id];
}

ItemDomain ItemDictionary::Domain(ItemId id) const {
  MARAS_CHECK(id < domains_.size()) << "invalid item id " << id;
  return domains_[id];
}

size_t ItemDictionary::CountInDomain(ItemDomain domain) const {
  size_t count = 0;
  for (ItemDomain d : domains_) {
    if (d == domain) ++count;
  }
  return count;
}

std::string ItemDictionary::Render(const Itemset& items) const {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ' ';
    out += '[';
    out += Name(items[i]);
    out += ']';
  }
  return out;
}

}  // namespace maras::mining
