#include "common/table_writer.h"

#include <algorithm>
#include <cassert>

namespace clouddb {

void TableWriter::AddRow(std::vector<std::string> row) {
  assert(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::string TableWriter::ToAscii() const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto render_sep = [&] {
    std::string s = "+";
    for (size_t w : widths) s += std::string(w + 2, '-') + "+";
    s += "\n";
    return s;
  };
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string s = "|";
    for (size_t i = 0; i < row.size(); ++i) {
      s += " " + row[i] + std::string(widths[i] - row[i].size(), ' ') + " |";
    }
    s += "\n";
    return s;
  };
  std::string out = render_sep() + render_row(header_) + render_sep();
  for (const auto& row : rows_) out += render_row(row);
  out += render_sep();
  return out;
}

}  // namespace clouddb
