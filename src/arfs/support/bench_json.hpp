// Benchmark trajectory output.
//
// Experiment binaries print human-readable report tables; CI and plotting
// scripts want the same numbers machine-readable. A BenchTrajectory collects
// named scalar measurements as a report runs and serializes them as a flat
// JSON object — benchmark name → {"value": v, "unit": "u"} — written to the
// path given by `--json <path>` (see bench/bench_main.hpp).
//
// json_valid() is a minimal structural validator used by the CI test that
// asserts every BENCH_*.json the emitters produce actually parses.
#pragma once

#include <string>
#include <vector>

namespace arfs::support {

/// One recorded measurement.
struct BenchEntry {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// An append-only log of named measurements with a JSON serializer. Names
/// are kept in record order; recording a name twice overwrites the first
/// value (reports may refine a number as they go).
class BenchTrajectory {
 public:
  /// Records (or overwrites) the measurement `name` = `value` `unit`.
  void record(const std::string& name, double value, std::string unit);

  [[nodiscard]] const std::vector<BenchEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Serializes as `{"name": {"value": v, "unit": "u"}, ...}`.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`. Returns false if the file cannot be
  /// opened or written.
  bool write_json(const std::string& path) const;

 private:
  std::vector<BenchEntry> entries_;
};

/// Appends `s` to `out` as a quoted JSON string literal, escaping quotes,
/// backslashes, and control characters.
void append_escaped(std::string& out, const std::string& s);

/// Structural JSON validity check: objects, arrays, strings (with escapes),
/// numbers, true/false/null, correct comma/colon placement, nothing after
/// the top-level value. No semantic interpretation.
[[nodiscard]] bool json_valid(const std::string& text);

}  // namespace arfs::support
