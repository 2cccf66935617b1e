// Border resistance extraction (paper Section 3).
//
// The border resistance (BR) of a defect under a given test is the defect
// resistance at which the memory starts to show faulty behaviour: for
// series defects (opens) faults appear for R >= BR, for shunt defects
// (shorts/bridges) for R <= BR.  The optimization criterion of the paper
// (Section 3) is to drive each stress in the direction that moves BR so
// that the failing resistance range is maximized.
#pragma once

#include <functional>
#include <optional>

#include "analysis/detection.hpp"
#include "defect/defect.hpp"

namespace dramstress::util::json {
class Writer;
struct Value;
}

namespace dramstress::analysis {

/// Knobs of the surrogate-first search (analysis/surrogate.hpp).  Its
/// bracket tolerance is BorderOptions::log_tol, shared with the classic
/// search.
struct SurrogateOptions {
  /// Hard cap of real transient probes per border search before the
  /// search declares itself lost and falls back to the classic path.
  int max_probes = 24;
  /// Candidate pruning (analyze path): a candidate whose *predicted*
  /// failing range lies more than this many decades below the predicted
  /// best is not searched with real transients.  Must stay well above the
  /// 0.15-decade measured tie window so a mispredicted near-tie cannot be
  /// pruned; <= 0 disables pruning.
  double prune_margin_decades = 0.5;
  /// Cheap-calibration overrides for the fast-model prior: fewer Vsa(R)
  /// knots and a coarser extraction tolerance than the model's analysis
  /// defaults, because the prior only has to land the first probe within
  /// about one coarse-grid step of the answer.
  int vsa_knots = 2;
  double vsa_tol = 0.05;  // V
};

struct BorderOptions {
  int scan_points = 9;        // coarse log grid before bisection
  double log_tol = 0.02;      // bracket tolerance in ln(R), both searches
  DetectionOptions detection;
  /// Iterations of (find BR -> re-derive charging count at BR).  The paper
  /// notes the detection condition itself depends on where BR lands
  /// (Fig. 6: the stressed SC needs more charging writes).
  int refine_iterations = 2;
  /// Warm start: a BR expected near the answer (the previous stress
  /// point's result -- BR moves little between adjacent stress values).
  /// The search then brackets the hint one coarse-grid step wide and
  /// expands geometrically instead of scanning the whole range, falling
  /// back to the full-range endpoints for the never-fails /
  /// fails-everywhere verdicts.  Affects probe count, not the verdict,
  /// for the monotone fail(R) predicates the detection conditions produce.
  std::optional<double> bracket_hint;
  /// Companion to bracket_hint for the surrogate path: the sense-margin
  /// slope d(margin)/d(ln R) near the hinted BR (BorderResult::margin_slope
  /// of the neighbouring search).  Lets the surrogate take a Newton step
  /// instead of a geometric walk; ignored by the classic search.
  std::optional<double> margin_slope_hint;
  SurrogateOptions surrogate;
};

struct BorderResult {
  /// The border resistance; nullopt if the test never fails in the range.
  std::optional<double> br;
  /// True if the faulty region is R >= br (series defect), false if R <= br.
  bool fault_at_high_r = true;
  /// The detection condition whose failing range br delimits.
  DetectionCondition condition;
  /// True if the test fails across the entire sweep range.
  bool fails_everywhere = false;
  /// Sense-margin slope d(margin)/d(ln R) at the border, reported by the
  /// surrogate search (unset on the classic path).  Feed it into the next
  /// neighbouring search's margin_slope_hint together with bracket_hint.
  /// Search state, not a result: append_json leaves it out of the human
  /// "result" block, and only append_border_state carries it (an optimize
  /// unit seeds its BR-compare searches with it).
  std::optional<double> margin_slope;

  /// Width of the failing range in decades of resistance (the coverage
  /// proxy the paper's criterion maximizes); 0 when br is absent.
  double failing_decades(const defect::SweepRange& range) const;
};

/// Find the BR of `cond` for defect `d` (injection swept over `range`):
/// the surrogate-first search of analysis/surrogate.hpp, which falls back
/// to classic_find_border wherever its model is contradicted.
BorderResult find_border_resistance(dram::DramColumn& column,
                                    const defect::Defect& d,
                                    const dram::ColumnSimulator& sim,
                                    const DetectionCondition& cond,
                                    const defect::SweepRange& range,
                                    const BorderOptions& opt = {});

/// Full Section-3 flow: derive a detection condition at a surely-faulty
/// reference value, find its BR, then iterate the charging count at the BR
/// (refine_iterations times).  Returns nullopt in BorderResult::br if no
/// candidate condition ever fails.  A fast-model prior ranks and prunes
/// the candidates; the winner's BR and the refine chain are measured
/// classically, so the result equals classic_analyze_defect's.
BorderResult analyze_defect(dram::DramColumn& column, const defect::Defect& d,
                            const dram::ColumnSimulator& sim,
                            const BorderOptions& opt = {});

/// The paper's classic search: a coarse log scan (or a geometric walk out
/// of opt.bracket_hint) followed by boolean bisection.  The surrogate
/// search's fallback and the reference it is checked against.
BorderResult classic_find_border(dram::DramColumn& column,
                                 const defect::Defect& d,
                                 const dram::ColumnSimulator& sim,
                                 const DetectionCondition& cond,
                                 const defect::SweepRange& range,
                                 const BorderOptions& opt = {});

/// analyze_defect over classic_find_border for every candidate.
BorderResult classic_analyze_defect(dram::DramColumn& column,
                                    const defect::Defect& d,
                                    const dram::ColumnSimulator& sim,
                                    const BorderOptions& opt = {});

/// Emit `r` as a JSON object (br, fault_at_high_r, fails_everywhere,
/// condition, failing_decades over `range`) -- the campaign cache payload.
void append_json(util::json::Writer& w, const BorderResult& r,
                 const defect::SweepRange& range);

/// Emit every field of `r` losslessly (doubles round-trip through the
/// writer's %.17g, the condition as structured ops rather than its
/// rendering): the "border_state" block of a campaign border payload, from
/// which the cell's optimize unit resumes instead of re-running Section 3.
void append_border_state(util::json::Writer& w, const BorderResult& r);

/// Inverse of append_border_state, bit for bit.  Throws ModelError on a
/// missing or mistyped field.
BorderResult parse_border_state(const util::json::Value& v);

}  // namespace dramstress::analysis
