// Fixture: profile.cc was outside the old hot-file allowlist; every
// src/mining file but the item dictionary is covered now — must fire.
#include <unordered_map>

namespace maras::mining {
void CountLengths() {
  std::unordered_map<unsigned, unsigned> histogram;
  histogram[3] += 1;
}
}  // namespace maras::mining
