#pragma once
// Diagnostics framework for the static-analysis passes (ftl::check).
//
// Every finding is a Diagnostic with a stable rule ID ("FTL-N002"), a
// severity, the object it concerns (a device, node, or lattice cell), a
// human message, and an optional source location carried over from the
// netlist parser. A Report aggregates diagnostics and renders them as
// compiler-style text or as canonical single-line JSON (fixed key order, no
// whitespace) so lint output can be golden-tested and cached byte-for-byte.
//
// Rule catalog (see DESIGN.md §11 for the full table):
//   FTL-P001  error    netlist failed to parse
//   FTL-N001  warning  dangling node (single device terminal)
//   FTL-N002  error    node has no DC path to ground
//   FTL-N003  error    voltage-source loop
//   FTL-N004  error    duplicate component name
//   FTL-N005  error    zero/negative value or geometry
//   FTL-N006  warning  unit-suspect value (likely missing suffix)
//   FTL-N007  error    structurally singular MNA pattern
//   FTL-N008  error    node names differing only by letter case
//   FTL-L001  warning  switch lies on no top-to-bottom path
//   FTL-L002  warning  declared variable never placed on a cell
//   FTL-L003  error    cell literal references an out-of-range variable
//   FTL-L004  note     row/column removable without changing the function
//   FTL-L005  note     lattice realizes a constant function
//   FTL-L006  note     row/column removable, SAT-certified (UNSAT-core cells)
//   FTL-L007  warning  switch can never conduct, SAT-certified
//   FTL-L008  note     a smaller lattice realizes the same function
//   FTL-L009  note     semantic analysis skipped / routed to SAT audits
//   FTL-E001  error    mapping does not realize the target (counterexample)
//   FTL-E002  error    mapping/target variable-count mismatch
//   FTL-E003  error    UNSAT verdict failed the embedded LRAT proof checker

#include <string>
#include <vector>

#include "ftl/util/error.hpp"
#include "ftl/util/source_loc.hpp"

namespace ftl::check {

enum class Severity { kNote = 0, kWarning = 1, kError = 2 };

/// Lower-case severity name ("note", "warning", "error").
const char* severity_name(Severity severity);

struct Diagnostic {
  std::string rule;      ///< stable ID, e.g. "FTL-N002"
  Severity severity = Severity::kNote;
  std::string object;    ///< device/node/cell the finding concerns
  std::string message;   ///< human-readable explanation
  util::SourceLoc loc;   ///< deck position when known
};

class Report {
 public:
  void add(std::string rule, Severity severity, std::string object,
           std::string message, util::SourceLoc loc = {});

  /// Appends every diagnostic of `other` (pass composition).
  void merge(const Report& other);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  int errors() const { return count(Severity::kError); }
  int warnings() const { return count(Severity::kWarning); }
  int notes() const { return count(Severity::kNote); }

  /// No errors (notes and warnings allowed). The gate aborts on !ok().
  bool ok() const { return errors() == 0; }

  /// No errors and no warnings (notes allowed) — lint exit code 0.
  bool clean() const { return errors() == 0 && warnings() == 0; }

  /// True when some diagnostic is at or above `severity`.
  bool has_at_least(Severity severity) const;

  /// Compiler-style rendering, one line per diagnostic plus a summary:
  ///   3:1: error [FTL-N002] node 'mid' has no DC path to ground
  ///   1 error, 0 warnings, 0 notes
  std::string render_text() const;

  /// Canonical single-line JSON:
  ///   {"clean":false,"errors":1,"warnings":0,"notes":0,
  ///    "diagnostics":[{"rule":...,"severity":...,"object":...,
  ///                    "message":...,"line":3,"column":1}]}
  /// line/column appear only when the location is valid. Key order and
  /// formatting are stable so output can be golden-tested.
  std::string render_json() const;

 private:
  int count(Severity severity) const;

  std::vector<Diagnostic> diagnostics_;
};

/// Thrown by the pre-solve gate when a circuit fails its static checks;
/// carries the full report (what() holds the rendered text).
class CheckError : public Error {
 public:
  explicit CheckError(Report report);

  const Report& report() const { return report_; }

 private:
  Report report_;
};

/// Escapes a string for embedding in JSON output (no surrounding quotes).
std::string json_escape(const std::string& text);

}  // namespace ftl::check
