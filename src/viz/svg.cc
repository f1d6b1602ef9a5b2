#include "viz/svg.h"

#include <sstream>

#include "util/delimited.h"
#include "util/string_util.h"

namespace maras::viz {

namespace {

std::string Num(double v) {
  // Two decimal places keeps files small and diffs stable.
  return maras::FormatDouble(v, 2);
}

}  // namespace

SvgDocument::SvgDocument(double width, double height)
    : width_(width), height_(height) {}

std::string SvgDocument::Escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string SvgDocument::StyleAttrs(const Style& style) const {
  std::string out = " fill=\"" + (style.fill.empty() ? "none" : style.fill) +
                    "\"";
  if (!style.stroke.empty()) {
    out += " stroke=\"" + style.stroke + "\" stroke-width=\"" +
           Num(style.stroke_width) + "\"";
  }
  if (style.opacity < 1.0) {
    out += " opacity=\"" + Num(style.opacity) + "\"";
  }
  return out;
}

void SvgDocument::Circle(double cx, double cy, double r, const Style& style) {
  elements_.push_back("<circle cx=\"" + Num(cx) + "\" cy=\"" + Num(cy) +
                      "\" r=\"" + Num(r) + "\"" + StyleAttrs(style) + "/>");
}

void SvgDocument::Rect(double x, double y, double w, double h,
                       const Style& style) {
  elements_.push_back("<rect x=\"" + Num(x) + "\" y=\"" + Num(y) +
                      "\" width=\"" + Num(w) + "\" height=\"" + Num(h) +
                      "\"" + StyleAttrs(style) + "/>");
}

void SvgDocument::Line(double x1, double y1, double x2, double y2,
                       const Style& style) {
  elements_.push_back("<line x1=\"" + Num(x1) + "\" y1=\"" + Num(y1) +
                      "\" x2=\"" + Num(x2) + "\" y2=\"" + Num(y2) + "\"" +
                      StyleAttrs(style) + "/>");
}

void SvgDocument::Path(const std::string& d, const Style& style) {
  elements_.push_back("<path d=\"" + d + "\"" + StyleAttrs(style) + "/>");
}

void SvgDocument::Text(double x, double y, const std::string& content,
                       const TextStyle& style) {
  std::string attrs = " x=\"" + Num(x) + "\" y=\"" + Num(y) +
                      "\" font-size=\"" + Num(style.font_size) +
                      "\" fill=\"" + style.fill + "\" text-anchor=\"" +
                      style.anchor + "\" font-family=\"sans-serif\"";
  if (style.bold) attrs += " font-weight=\"bold\"";
  elements_.push_back("<text" + attrs + ">" + Escape(content) + "</text>");
}

void SvgDocument::Embed(const SvgDocument& other, double tx, double ty,
                        double scale) {
  elements_.push_back("<g transform=\"translate(" + Num(tx) + "," + Num(ty) +
                      ") scale(" + Num(scale) + ")\">");
  for (const std::string& element : other.elements_) {
    elements_.push_back("  " + element);
  }
  elements_.push_back("</g>");
}

std::string SvgDocument::Render() const {
  std::ostringstream out;
  out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << Num(width_)
      << "\" height=\"" << Num(height_) << "\" viewBox=\"0 0 " << Num(width_)
      << " " << Num(height_) << "\">\n";
  for (const std::string& element : elements_) {
    out << "  " << element << "\n";
  }
  out << "</svg>\n";
  return out.str();
}

maras::Status SvgDocument::WriteFile(const std::string& path) const {
  return maras::AtomicWriteStringToFile(path, Render());
}

}  // namespace maras::viz
