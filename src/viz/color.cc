#include "viz/color.h"

#include <algorithm>
#include <cstdio>

namespace maras::viz {

std::string Color::ToHex() const {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "#%02X%02X%02X", r, g, b);
  return buf;
}

namespace {

// Linear interpolation from `from` toward `to`, t ∈ [0, 1].
Color Mix(const Color& from, const Color& to, double t) {
  t = std::clamp(t, 0.0, 1.0);
  auto lerp = [t](uint8_t a, uint8_t b) {
    return static_cast<uint8_t>(a + (b - a) * t + 0.5);
  };
  return Color{lerp(from.r, to.r), lerp(from.g, to.g), lerp(from.b, to.b)};
}

}  // namespace

Color LevelColor(size_t level, size_t max_level) {
  // Light steel blue -> dark navy as cardinality grows.
  const Color light{198, 219, 239};
  const Color dark{8, 48, 107};
  if (max_level <= 1) return dark;
  double t = static_cast<double>(level - 1) /
             static_cast<double>(max_level - 1);
  return Mix(light, dark, t);
}

Color TargetRuleColor() { return Color{214, 96, 77}; }   // warm red
Color AxisColor() { return Color{102, 102, 102}; }

}  // namespace maras::viz
