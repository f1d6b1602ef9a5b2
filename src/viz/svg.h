#ifndef MARAS_VIZ_SVG_H_
#define MARAS_VIZ_SVG_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace maras::viz {

// Minimal SVG document builder — enough vector-graphics surface for the
// MARAS views (contextual glyphs, bar charts, panoramagram). Elements are
// appended in paint order; Render() emits a standalone SVG file.
class SvgDocument {
 public:
  SvgDocument(double width, double height);

  // Common presentation attributes; empty string omits the attribute.
  struct Style {
    std::string fill = "none";
    std::string stroke;
    double stroke_width = 0.0;
    double opacity = 1.0;
  };

  void Circle(double cx, double cy, double r, const Style& style);
  void Rect(double x, double y, double w, double h, const Style& style);
  void Line(double x1, double y1, double x2, double y2, const Style& style);
  // Raw path data (the glyph renderer builds arc-sector paths).
  void Path(const std::string& d, const Style& style);

  struct TextStyle {
    double font_size = 12.0;
    std::string fill = "#333333";
    // "start", "middle" or "end".
    std::string anchor = "start";
    bool bold = false;
  };
  void Text(double x, double y, const std::string& content,
            const TextStyle& style);

  // Embeds another document's content at (tx, ty), scaled — the compositor
  // used to lay out multi-panel figures (e.g. the user-study question
  // sheets).
  void Embed(const SvgDocument& other, double tx, double ty,
             double scale = 1.0);

  double width() const { return width_; }
  double height() const { return height_; }

  std::string Render() const;
  maras::Status WriteFile(const std::string& path) const;

 private:
  static std::string Escape(const std::string& text);
  std::string StyleAttrs(const Style& style) const;

  double width_;
  double height_;
  std::vector<std::string> elements_;
};

}  // namespace maras::viz

#endif  // MARAS_VIZ_SVG_H_
