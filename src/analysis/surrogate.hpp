// Surrogate-accelerated border-resistance search.
//
// The classic search (analysis/border.hpp) treats each transient as a
// boolean oracle: scan a coarse log grid, then bisect the pass/fail flip.
// That discards the continuous information every read already produces --
// the sense margin V(bt) - V(bc) at the decision sample -- and spends
// O(scan_points + log2(step/tol)) full transients per condition.
//
// This module replaces the oracle with a *model*: it root-finds the sense
// margin over ln R, maintaining a monotone cubic (PCHIP) surrogate through
// the real samples collected so far.  Divided-difference error bounds per
// interval say where the surrogate is trustworthy; new transients are spent
// only where the bounded band still straddles zero and the bracket is wider
// than the tolerance.  A cheaply calibrated FastCellModel supplies the
// prior (where to place the first probe, which candidates are worth
// searching at all); real transients always make the final call.
//
// Fallback semantics: if the collected margins violate monotonicity or the
// probe budget runs out, the search falls back to classic boolean bisection
// -- on the sign-verified bracket when one exists (cheap), on the full
// classic scan otherwise.  `surrogate.fallback` counts these, and one
// `surrogate.fallback.<cause>` counter per cause says why
// (docs/OBSERVABILITY.md).
//
// This is the only border search callers select: find_border_resistance
// and analyze_defect (analysis/border.hpp) are defined here.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "analysis/border.hpp"
#include "analysis/fast_model.hpp"

namespace dramstress::analysis {

/// One real probe: the condition's signed pass margin at ln(R) = log_r
/// (margin > 0 <=> the condition passes, see ConditionOutcome).
struct MarginSample {
  double log_r = 0.0;  // ln R
  double margin = 0.0;  // V
};

/// Evaluates the real (transient) margin at resistance r.
using MarginProbe = std::function<double(double r)>;

struct SurrogateSearchResult {
  /// Crossing resistance; nullopt when the condition never fails in range.
  std::optional<double> br;
  bool fails_everywhere = false;
  /// Why the search gave up, if it did: the samples broke the expected
  /// monotone shape, or the probe budget ran out.  Either way the caller
  /// must re-run the classic search.  When `bracket_lo/hi` are set the
  /// flip is sign-verified between them and classic bisection can start
  /// there.
  enum class GiveUp { None, Shape, Budget };
  GiveUp give_up = GiveUp::None;
  bool fell_back() const { return give_up != GiveUp::None; }
  std::optional<double> bracket_lo;  // ohms
  std::optional<double> bracket_hi;  // ohms
  long probes = 0;
  /// Margin slope d(margin)/d(ln R) across the final bracket, set when a
  /// crossing was found.  Fed back as `prior_slope` of the next search at
  /// a neighbouring stress point, it turns the bracketing walk into a
  /// Newton step: one probe measures the margin, the slope converts it
  /// into a distance, and the second probe usually lands on the far side
  /// of the crossing already within tolerance.
  std::optional<double> crossing_slope;
  /// All real samples taken, sorted by log_r (exposed for tests).
  std::vector<MarginSample> samples;
};

/// Root-find the margin's zero crossing over `range`, starting near
/// `prior_log_r` (ln ohms; clamp into range), to a bracket of opt.log_tol
/// in ln R within opt.surrogate.max_probes probes.  `series` selects the
/// crossing direction: series defects pass at low R and fail high
/// (margin decreasing in R), shunts the mirror image.  Pure in `probe`:
/// unit-testable against synthetic curves.
SurrogateSearchResult surrogate_root_search(const MarginProbe& probe,
                                            const defect::SweepRange& range,
                                            bool series, double prior_log_r,
                                            const BorderOptions& opt,
                                            std::optional<double> prior_slope =
                                                std::nullopt);

/// Fast-model prior shared by every candidate/corner search of one defect:
/// calibrated once (cheap settings from SurrogateOptions), then queried for
/// predicted margins, predicted BR and predicted failing decades at model
/// cost (microseconds, no transients).
class BorderSurrogate {
public:
  BorderSurrogate(dram::DramColumn& column, const defect::Defect& d,
                  const dram::ColumnSimulator& sim,
                  const SurrogateOptions& opt);

  struct Prediction {
    /// False when the model cannot represent the condition (aggressor /
    /// coupling operations): such candidates are always searched for real
    /// and never pruned or trusted.
    bool reliable = true;
    std::optional<double> br;
    bool fails_everywhere = false;
    double decades = 0.0;  // predicted failing_decades over the range
    /// Smallest predicted |margin| over the range when the condition is
    /// predicted to never fail: how decisively the model rules it out.
    double min_abs_margin = 0.0;  // V (model cell scale)
  };
  /// Predicted pass margin (model scale) of `cond` at resistance r.
  double margin(const DetectionCondition& cond, double r) const;
  Prediction predict(const DetectionCondition& cond,
                     const defect::SweepRange& range) const;

  const FastCellModel& model() const { return model_; }

private:
  FastCellModel model_;
  bool series_ = true;
};

}  // namespace dramstress::analysis
