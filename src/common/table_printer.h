// TablePrinter: aligned text tables for the benchmark harnesses, which
// regenerate the paper's tables/figures as console output.
#ifndef GUMBO_COMMON_TABLE_PRINTER_H_
#define GUMBO_COMMON_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace gumbo {

/// Collects rows of string cells and renders them with padded columns:
///
///   TablePrinter tp({"Query", "SEQ", "PAR"});
///   tp.AddRow({"A1", "233", "137"});
///   std::cout << tp.Render();
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  std::string Render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace gumbo

#endif  // GUMBO_COMMON_TABLE_PRINTER_H_
