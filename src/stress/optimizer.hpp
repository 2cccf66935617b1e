// Stress optimization methodology (paper Section 4).
//
// For each stress axis:
//   1. probe the critical write and the sense threshold at the candidate
//      values (Sections 4.1-4.3);
//   2. if the two effects agree (or one is insensitive), the direction is
//      decided from the probes alone;
//   3. if they conflict -- as for the supply voltage, which stresses the
//      write up but relaxes the read -- fall back to computing the border
//      resistance at the conflicting candidates and keep the value that
//      maximizes the failing resistance range (the Section-3 criterion).
// Finally the combined stress combination (SC) is evaluated end-to-end:
// the result planes change shape, the border resistance drops, and a new
// detection condition may be required (Section 4.4 / Fig. 6).
#pragma once

#include <optional>

#include "analysis/border.hpp"
#include "stress/probe.hpp"

namespace dramstress::util::json {
class Writer;
}

namespace dramstress::stress {

enum class DecisionMethod {
  KeptNominal,        // no candidate stressed either effect
  ProbedDirectly,     // write/read probes agreed
  BorderComparison,   // conflicting probes resolved by BR computation
};

const char* to_string(DecisionMethod method);

struct AxisDecision {
  StressAxis axis{};
  AxisProbe probe;
  double chosen_value = 0.0;
  DecisionMethod method = DecisionMethod::KeptNominal;
  /// Human-readable direction relative to nominal: "decrease", "increase",
  /// "keep" (for temperature, e.g. "increase" means hotter).
  std::string direction() const;
  double nominal_value() const;
};

struct OptimizerOptions {
  analysis::BorderOptions border;
  dram::SimSettings settings;
  double write_tol = 5e-3;  // V
  double read_tol = 10e-3;  // V
  /// Axes to optimize (defaults to all four).
  std::vector<StressAxis> axes = default_axes();
  /// Input, not a setting: the Section-3 nominal analysis when the caller
  /// already has it (a campaign optimize unit takes it from its border
  /// unit's payload).  It must be what analyze_defect(column, d, <sim at
  /// nominal with `settings`>, border) returns; unset, optimize_stresses
  /// runs that analysis itself.
  std::optional<analysis::BorderResult> nominal_border;
};

struct OptimizationResult {
  defect::Defect defect;
  StressCondition nominal_sc;
  StressCondition stressed_sc;
  analysis::BorderResult nominal_border;
  analysis::BorderResult stressed_border;
  std::vector<AxisDecision> decisions;

  /// The failing-range gain in decades (stressed minus nominal).
  double coverage_gain_decades() const;
};

/// Run the full Section-4 flow for one defect.  Throws ConvergenceError if
/// the defect has no detectable fault anywhere in its sweep range at the
/// nominal condition.
OptimizationResult optimize_stresses(dram::DramColumn& column,
                                     const defect::Defect& d,
                                     const StressCondition& nominal,
                                     const OptimizerOptions& opt);

/// Same with default options.  An overload instead of `opt = {}`: GCC 12
/// -O3 raises spurious -Wmaybe-uninitialized on the default-argument
/// temporary's vector members when its cleanup is inlined into the caller.
OptimizationResult optimize_stresses(dram::DramColumn& column,
                                     const defect::Defect& d,
                                     const StressCondition& nominal);

/// Mirror a detection condition to the other bitline side (w0 <-> w1,
/// r0 <-> r1): the paper notes true/comp behaviour is identical with data
/// inverted, which this library exploits to halve Table-1 compute.
analysis::DetectionCondition mirror_condition(
    const analysis::DetectionCondition& cond);

/// Emit `r` as a JSON object (nominal/stressed corners and borders, the
/// per-axis decisions, the coverage gain) -- the campaign cache payload.
void append_json(util::json::Writer& w, const OptimizationResult& r,
                 const defect::SweepRange& range);

}  // namespace dramstress::stress
