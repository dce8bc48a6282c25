#pragma once

// Output checks against the committed references (references.txt).
//
// A QP job's values are its table rows flattened in the order run_job
// prints them: band, then the table's columns (eV, and the dimensionless
// Z where the route has it).

#include <map>
#include <string>
#include <vector>

namespace e2e {

using Values = std::vector<double>;

/// run_job prints QP tables with 4 decimals: a printed value may sit up to
/// half a unit of the last digit from the reference, plus roundoff.
inline constexpr double kPrintedTol = 1e-4;
/// Full-precision values (stage replays, served outcomes): roundoff from a
/// rewritten FFT or GEMM stays far below this; the GPP/FF/space-time
/// cross-validation tolerances are tenths of an eV.
inline constexpr double kExactTol = 1e-6;

/// The QP table of run_job output: the rows after the "band ..." header
/// that start with a digit, as text and as values. False when absent.
bool extract_table(const std::string& out, std::string* table, Values* values);

/// Same length and every |got - ref| <= tol.
bool within(const Values& got, const Values& ref, double tol);

class References {
 public:
  /// Reads `key n v_1 .. v_n` lines; '#' starts a comment.
  void load(const std::string& path);
  void save(const std::string& path) const;
  /// Throws std::runtime_error naming the key when it has no reference.
  const Values& at(const std::string& key) const;
  void set(const std::string& key, Values v) { refs_[key] = std::move(v); }

 private:
  std::map<std::string, Values> refs_;
};

}  // namespace e2e
