#ifndef CLOUDDB_COMMON_TABLE_WRITER_H_
#define CLOUDDB_COMMON_TABLE_WRITER_H_

#include <string>
#include <utility>
#include <vector>

namespace clouddb {

/// Accumulates rows of strings and renders them as an aligned ASCII table
/// (the terminal output of the reproduced figures).
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> header)
      : header_(std::move(header)) {}

  /// Appends a row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  size_t num_rows() const { return rows_.size(); }

  /// Renders an aligned, boxed ASCII table.
  std::string ToAscii() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace clouddb

#endif  // CLOUDDB_COMMON_TABLE_WRITER_H_
