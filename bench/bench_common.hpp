// Shared helpers for the figure-reproduction benches: one argument parser
// (--quick / --full / --seed N, plus the optional flags each bench names
// and honours: --jobs N, --metrics-out PATH, --json-out PATH,
// --build-jobs N, --xl), table printing and the JSON row writer of the
// BENCH_*.json artifacts.
//
// Figure benches are plain executables (not google-benchmark binaries):
// each one runs a simulation campaign and prints the same rows/series the
// paper's figure reports, so `for b in build/bench/*; do $b; done`
// regenerates the whole evaluation section.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace spider::bench {

struct BenchArgs {
  /// 0 = quick smoke, 1 = default, 2 = full paper scale.
  int scale = 1;
  std::uint64_t seed = 42;
  /// Campaign cells run `jobs` at a time over a worker pool. Every cell
  /// is a fully isolated world (own simulator, scenario, RNG stream,
  /// metrics registry), so output is byte-identical at any value; 1 (the
  /// default) runs the plain serial loop on the calling thread.
  std::size_t jobs = 1;
  /// When non-empty, the bench writes a MetricsRegistry JSON snapshot of
  /// the campaign's cumulative counters/gauges/histograms to this path.
  std::string metrics_out;
  /// Wall-clock JSON artifact path (--json-out) of the benches that write
  /// one; defaults to the bench's own BENCH_<name>.json.
  std::string json_out;
  /// Worker threads for world construction (--build-jobs, floor 1);
  /// output is byte-identical at any value.
  std::size_t build_jobs = 1;
  /// bench_scale's half-million-peer estimator tier (--xl).
  bool xl = false;
};

/// The optional flags a bench honours, beyond --quick, --full and --seed.
/// A bench passes the ones it reads to parse_args(), which rejects the
/// rest.
enum BenchFlag : unsigned {
  kJobsFlag = 1u << 0,        ///< --jobs N
  kMetricsOutFlag = 1u << 1,  ///< --metrics-out PATH
  kJsonOutFlag = 1u << 2,     ///< --json-out PATH
  kBuildJobsFlag = 1u << 3,   ///< --build-jobs N
  kXlFlag = 1u << 4,          ///< --xl
};

/// Ends the process with exit status 2 after one line on stderr naming
/// the argument problem and the flags this bench accepts (`flags`).
[[noreturn]] inline void usage_error(const char* argv0, unsigned flags,
                                     const std::string& problem) {
  const char* slash = std::strrchr(argv0, '/');
  const char* prog = slash != nullptr ? slash + 1 : argv0;
  std::string usage = "[--quick | --full] [--seed N]";
  if (flags & kJobsFlag) usage += " [--jobs N]";
  if (flags & kMetricsOutFlag) usage += " [--metrics-out PATH]";
  if (flags & kJsonOutFlag) usage += " [--json-out PATH]";
  if (flags & kBuildJobsFlag) usage += " [--build-jobs N]";
  if (flags & kXlFlag) usage += " [--xl]";
  std::fprintf(stderr, "%s: %s; usage: %s %s\n", prog, problem.c_str(), prog,
               usage.c_str());
  std::exit(2);
}

/// Parses --quick, --full, --seed and the optional flags in `flags` (a
/// BenchFlag mask). A flag outside them, a flag missing its value, or a
/// count that is not a non-negative decimal integer is a usage error
/// (exit status 2), never a silent default or an ignored flag.
inline BenchArgs parse_args(int argc, char** argv, unsigned flags,
                            std::string default_json_out = "") {
  BenchArgs args;
  args.json_out = std::move(default_json_out);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto fail = [&](const std::string& problem) {
      usage_error(argv[0], flags, problem);
    };
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) fail(flag + " needs a value");
      return argv[++i];
    };
    auto number = [&]() -> std::uint64_t {
      const char* text = value();
      char* end = nullptr;
      errno = 0;
      const unsigned long long n = std::strtoull(text, &end, 10);
      // strtoull skips blanks and negates "-1"; demand digits only.
      if (*text < '0' || *text > '9' || *end != '\0' || errno == ERANGE) {
        fail(flag + " needs a non-negative integer, not '" + text + "'");
      }
      return n;
    };
    // True if `name` is the flag and this bench honours it.
    auto is = [&](const char* name, unsigned bit) {
      return flag == name && (flags & bit) != 0;
    };
    if (flag == "--quick") {
      args.scale = 0;
    } else if (flag == "--full") {
      args.scale = 2;
    } else if (flag == "--seed") {
      args.seed = number();
    } else if (is("--xl", kXlFlag)) {
      args.xl = true;
    } else if (is("--jobs", kJobsFlag)) {
      args.jobs = std::max<std::size_t>(1, number());
    } else if (is("--build-jobs", kBuildJobsFlag)) {
      args.build_jobs = std::max<std::size_t>(1, number());
    } else if (is("--metrics-out", kMetricsOutFlag)) {
      args.metrics_out = value();
    } else if (is("--json-out", kJsonOutFlag)) {
      args.json_out = value();
    } else {
      fail("unknown flag " + flag);
    }
  }
  return args;
}

/// Writes `metrics` to `args.metrics_out` if set; prints the outcome.
/// A failed write ends the process with exit status 1.
inline void maybe_write_metrics(const BenchArgs& args,
                                const obs::MetricsRegistry& metrics) {
  if (args.metrics_out.empty()) return;
  if (!metrics.write_json(args.metrics_out)) {
    std::fprintf(stderr, "metrics: failed to write %s\n",
                 args.metrics_out.c_str());
    std::exit(1);
  }
  std::printf("metrics: wrote %zu instruments to %s\n", metrics.size(),
              args.metrics_out.c_str());
}

/// Closes a JSON artifact that `bench` wrote to `path` and reports the
/// outcome: "<bench>: wrote <path>" on stdout, or "<bench>: failed to
/// write <path>" on stderr when any write or the close failed (the
/// close flushes, so a full disk shows up there). Returns false on
/// failure; the caller exits non-zero.
inline bool close_json(std::FILE* f, const char* bench,
                       const std::string& path) {
  const bool written = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "%s: failed to write %s\n", bench, path.c_str());
    return false;
  }
  std::printf("%s: wrote %s\n", bench, path.c_str());
  return true;
}

/// One column of a bench's JSON rows: its key and its value's JSON text.
/// A bench lists its columns once, in key order, in a `RowColumn<Row>`
/// table that write_rows() walks.
template <class Row>
struct RowColumn {
  const char* key;
  std::string (*value)(const Row&);
};

/// JSON text of an unsigned counter.
inline std::string count(std::uint64_t v) { return std::to_string(v); }

/// Writes every row of `cells`, cell by cell, as one JSON object per line
/// (four-space indent, ",\n" between rows, no trailing newline): the body
/// of a "rows" array.
template <class Row, std::size_t N>
void write_rows(std::FILE* f, const std::vector<std::vector<Row>>& cells,
                const RowColumn<Row> (&columns)[N]) {
  const char* row_sep = "";
  for (const auto& cell : cells) {
    for (const Row& row : cell) {
      std::fprintf(f, "%s    {", row_sep);
      const char* sep = "";
      for (const RowColumn<Row>& column : columns) {
        std::fprintf(f, "%s\"%s\": %s", sep, column.key,
                     column.value(row).c_str());
        sep = ", ";
      }
      std::fprintf(f, "}");
      row_sep = ",\n";
    }
  }
}

/// Fixed-width table printer for figure output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : "";
        std::printf(" %-*s |", int(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      for (std::size_t i = 0; i < widths[c] + 2; ++i) std::printf("-");
      std::printf("|");
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace spider::bench
