#include "common/table_printer.h"

#include <algorithm>

namespace gumbo {

std::string TablePrinter::Render() const {
  size_t cols = header_.size();
  for (const auto& r : rows_) cols = std::max(cols, r.size());
  std::vector<size_t> width(cols, 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t i = 0; i < cols; ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      line += "| ";
      line += cell;
      line.append(width[i] - cell.size() + 1, ' ');
    }
    line += "|\n";
    return line;
  };

  std::string sep = "+";
  for (size_t i = 0; i < cols; ++i) {
    sep.append(width[i] + 2, '-');
    sep += "+";
  }
  sep += "\n";

  std::string out = sep + render_row(header_) + sep;
  for (const std::vector<std::string>& row : rows_) out += render_row(row);
  out += sep;
  return out;
}

}  // namespace gumbo
