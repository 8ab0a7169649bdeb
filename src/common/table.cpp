#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/error.h"

namespace d2net {

namespace {
/// Display columns of a UTF-8 cell: its code points (every byte that is not
/// a continuation byte), so an em dash pads like one column, not three.
std::size_t display_width(const std::string& s) {
  return static_cast<std::size_t>(std::count_if(s.begin(), s.end(), [](char ch) {
    return (static_cast<unsigned char>(ch) & 0xC0u) != 0x80u;
  }));
}
}  // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  D2NET_REQUIRE(!header_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> row) {
  D2NET_REQUIRE(row.size() == header_.size(), "row arity must match header");
  rows_.push_back(std::move(row));
}

std::string Table::to_cell(double v) { return fmt(v, 3); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = display_width(header_[c]);
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], display_width(row[c]));
    }
  }
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << row[c] << std::string(width[c] - display_width(row[c]), ' ');
    }
    os << " |\n";
  };
  auto rule = [&] {
    for (std::size_t c = 0; c < width.size(); ++c) {
      os << (c == 0 ? "+-" : "-+-") << std::string(width[c], '-');
    }
    os << "-+\n";
  };
  rule();
  emit(header_);
  rule();
  for (const auto& row : rows_) emit(row);
  rule();
}

void Table::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string fmt_pct(double fraction, int decimals) {
  return fmt(fraction * 100.0, decimals) + "%";
}

}  // namespace d2net
