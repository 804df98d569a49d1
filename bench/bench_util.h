// Shared helpers for the experiment harness binaries: fixed-width table rendering,
// paper-vs-measured comparison rows, and machine-readable JSON output.
//
// Every harness main accepts `--json <path>`: tables still print to stdout, and the same
// cells are additionally written to <path> as one JSON document, so cross-PR tooling can
// diff experiment outputs without scraping the fixed-width rendering.

#ifndef PROBCON_BENCH_BENCH_UTIL_H_
#define PROBCON_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"

namespace probcon::bench {

// Prints a header box for an experiment.
inline void PrintBanner(const std::string& experiment_id, const std::string& title) {
  std::printf("\n=== %s: %s ===\n", experiment_id.c_str(), title.c_str());
}

// Fixed-width row rendering: every cell padded to the widest cell in its column.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    };
    widen(header_);
    for (const auto& row : rows_) {
      widen(row);
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < widths.size(); ++i) {
        const std::string& cell = i < row.size() ? row[i] : std::string();
        std::printf("| %-*s ", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("|\n");
    };
    print_row(header_);
    for (size_t i = 0; i < widths.size(); ++i) {
      std::printf("|%s", std::string(widths[i] + 2, '-').c_str());
    }
    std::printf("|\n");
    for (const auto& row : rows_) {
      print_row(row);
    }
  }

  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Collects named tables and scalars from one harness run and renders them as a single
// JSON document: {"tables": {name: {"header": [...], "rows": [[...]]}}, "values": {...}}.
// Insertion order is preserved, so identical runs produce byte-identical files.
class JsonReport {
 public:
  void AddTable(const std::string& name, const Table& table) {
    Json rows = Json::Array();
    for (const auto& row : table.rows()) {
      rows.Append(Strings(row));
    }
    Json cells = Json::Object();
    cells.Set("header", Strings(table.header()));
    cells.Set("rows", std::move(rows));
    tables_.Set(name, std::move(cells));
  }

  void AddValue(const std::string& name, double value) { values_.Set(name, Json::Number(value)); }

  std::string ToJson() const {
    Json document = Json::Object();
    document.Set("tables", tables_);
    document.Set("values", values_);
    return WriteJson(document, 0) + "\n";
  }

  // Writes the document; prints a diagnostic and returns false when the path is not
  // writable.
  bool WriteTo(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write JSON report to %s\n", path.c_str());
      return false;
    }
    const std::string json = ToJson();
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    std::printf("JSON report written to %s\n", path.c_str());
    return true;
  }

 private:
  static Json Strings(const std::vector<std::string>& cells) {
    Json array = Json::Array();
    for (const std::string& cell : cells) {
      array.Append(Json::String(cell));
    }
    return array;
  }

  Json tables_ = Json::Object();
  Json values_ = Json::Object();
};

// Extracts the value of a "--json <path>" argument pair; empty string when absent.
inline std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return argv[i + 1];
    }
  }
  return std::string();
}

}  // namespace probcon::bench

#endif  // PROBCON_BENCH_BENCH_UTIL_H_
