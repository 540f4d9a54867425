#include "plot/svg.h"

#include <fstream>

#include "util/error.h"
#include "util/text.h"

namespace feio::plot {
namespace {

const char* pen_style(Pen pen) {
  switch (pen) {
    case Pen::kMesh:
      return "stroke=\"#1a1a1a\" stroke-width=\"1\"";
    case Pen::kBoundary:
      return "stroke=\"#000000\" stroke-width=\"2\"";
    case Pen::kContour:
      return "stroke=\"#0050b0\" stroke-width=\"1.2\"";
    case Pen::kGridAid:
      return "stroke=\"#b0b0b0\" stroke-width=\"0.7\" stroke-dasharray=\"4 3\"";
  }
  return "stroke=\"#000000\" stroke-width=\"1\"";
}

constexpr int kWidthPx = 900;
constexpr double kMarginFrac = 0.06;  // of the width, on every side
constexpr double kTitleBandPx = 40.0;

}  // namespace

std::string render_svg(const PlotFile& plot) {
  geom::BBox box = plot.bounds();
  if (!box.valid()) box = {geom::Vec2{0, 0}, geom::Vec2{1, 1}};
  if (box.width() <= 0.0) box.hi.x = box.lo.x + 1.0;
  if (box.height() <= 0.0) box.hi.y = box.lo.y + 1.0;

  const double margin = kWidthPx * kMarginFrac;
  const double draw_w = kWidthPx - 2.0 * margin;
  const double scale = draw_w / box.width();
  const double draw_h = box.height() * scale;
  const double height_px = draw_h + 2.0 * margin + kTitleBandPx;

  // World -> device, flipping y (SVG y grows downward).
  auto map = [&](geom::Vec2 p) {
    return geom::Vec2{margin + (p.x - box.lo.x) * scale,
                      kTitleBandPx + margin + (box.hi.y - p.y) * scale};
  };

  // A <line> takes 90 to 110 bytes and a label about 100 plus its text, so
  // most plots render in one allocation.
  std::string out;
  out.reserve(512 + 100 * plot.lines().size() + 120 * plot.labels().size());
  out += "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"";
  append_int(out, kWidthPx);
  out += "\" height=\"";
  append_int(out, static_cast<int>(height_px));
  out += "\" viewBox=\"0 0 ";
  append_int(out, kWidthPx);
  out += ' ';
  append_int(out, static_cast<int>(height_px));
  out += "\">\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";

  const auto title = [&](const std::string& text, const char* y_and_size) {
    out += "<text x=\"";
    append_int(out, kWidthPx / 2);
    out += y_and_size;
    append_xml_escaped(out, text);
    out += "</text>\n";
  };
  if (!plot.title().empty()) {
    title(plot.title(),
          "\" y=\"20\" text-anchor=\"middle\" font-family=\"monospace\" "
          "font-size=\"15\">");
  }
  if (!plot.subtitle().empty()) {
    title(plot.subtitle(),
          "\" y=\"36\" text-anchor=\"middle\" font-family=\"monospace\" "
          "font-size=\"12\">");
  }

  for (const LineSeg& l : plot.lines()) {
    const geom::Vec2 a = map(l.a);
    const geom::Vec2 b = map(l.b);
    out += "<line x1=\"";
    append_fixed(out, a.x, 2);
    out += "\" y1=\"";
    append_fixed(out, a.y, 2);
    out += "\" x2=\"";
    append_fixed(out, b.x, 2);
    out += "\" y2=\"";
    append_fixed(out, b.y, 2);
    out += "\" ";
    out += pen_style(l.pen);
    out += "/>\n";
  }

  for (const Label& l : plot.labels()) {
    const geom::Vec2 p = map(l.at);
    out += "<text x=\"";
    append_fixed(out, p.x, 2);
    out += "\" y=\"";
    append_fixed(out, p.y, 2);
    out += "\" font-family=\"monospace\" font-size=\"";
    append_fixed(out, 10.0 * l.size, 1);
    out += "\" fill=\"#202020\">";
    append_xml_escaped(out, l.text);
    out += "</text>\n";
  }

  out += "</svg>\n";
  return out;
}

void write_svg(const PlotFile& plot, const std::string& path) {
  std::ofstream f(path);
  FEIO_REQUIRE(f.good(), "cannot open '" + path + "' for writing");
  f << render_svg(plot);
  FEIO_REQUIRE(f.good(), "failed writing '" + path + "'");
}

}  // namespace feio::plot
