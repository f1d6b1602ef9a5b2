// Fixture: the string-keyed, build-time item dictionary is the one
// src/mining exemption — must stay quiet.
#include <string>
#include <unordered_map>

namespace maras::mining {
void Intern(std::unordered_map<std::string, unsigned>* index) {
  index->emplace("ASPIRIN", 0u);
}
}  // namespace maras::mining
