#ifndef MARAS_VIZ_COLOR_H_
#define MARAS_VIZ_COLOR_H_

#include <cstdint>
#include <string>

namespace maras::viz {

struct Color {
  uint8_t r = 0;
  uint8_t g = 0;
  uint8_t b = 0;

  std::string ToHex() const;
};

// Sequential palette for contextual-rule cardinality levels: "the darker
// the larger" the antecedent (Section 4). level is 1-based; max_level the
// number of levels in the glyph.
Color LevelColor(size_t level, size_t max_level);

// Fixed roles used across the MARAS views.
Color TargetRuleColor();   // inner circle
Color AxisColor();

}  // namespace maras::viz

#endif  // MARAS_VIZ_COLOR_H_
