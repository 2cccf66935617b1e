// Detection conditions and their derivation (paper Section 3 & Fig. 6).
//
// A detection condition is the operation recipe a memory test must contain
// to expose a defect: e.g. "w1 w1 w0 r0" for the cell open (charge the cell
// with enough w1 operations, then write 0, then read expecting 0 -- the
// defect makes the read return 1).  The derivation is algorithmic:
//   * transition-style candidates k*w(x) w(~x) r(~x) target defects that
//     impede writing one level after the cell held the other;
//   * retention-style candidates k*w(x) [del] r(x) target defects that leak
//     a stored level away.
// The number of charging writes k is the saturation count observed in the
// w-plane (the paper: "two w1 operations are necessary to charge up fully
// ... when R has a value close to BR").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dram/column_sim.hpp"

namespace dramstress::analysis {

struct DetectionCondition {
  dram::OpSequence ops;
  int expected = 0;     // expected value of the final read
  int init_logical = 0; // logical value the cell holds before the sequence

  /// Paper-style rendering, e.g. "w1 w1 w0 r0".
  std::string str() const;

  bool operator==(const DetectionCondition&) const = default;
};

/// Default delays for retention-style candidates (longest first).  An
/// out-of-line factory (cf. stress::default_axes) rather than a braced
/// member initializer: GCC 12 -O3 emits spurious -Wmaybe-uninitialized
/// when the inline vector construction of a defaulted options temporary
/// is folded into the caller.
std::vector<double> default_retention_times();

struct DetectionOptions {
  int max_charge_ops = 6;
  /// A charging write that moves Vc by less than this is "saturated".
  double saturation_epsilon = 0.1;  // V
  /// Delays used by retention-style candidates (longest first).  Several
  /// durations are offered because a long pause is not *valid* at every
  /// corner: at +87 C the healthy junction leakage alone empties a cell
  /// over 100 us, so only a shorter pause separates defective from healthy.
  std::vector<double> retention_times = default_retention_times();
  /// Also offer coupling-style candidates that write the *neighbouring*
  /// cell between the victim's write and read (needed for inter-cell
  /// bridges such as B3).  Off by default: the paper's Table 1 set does
  /// not need aggressor operations.
  bool include_coupling = false;
};

/// Number of w(x) operations needed to saturate the cell starting from the
/// opposite logical level, under the current injection.  At least 1.
int saturation_count(const dram::ColumnSimulator& sim, dram::Side side, int x,
                     const DetectionOptions& opt = {});

/// Evaluate: does the condition's final read return the wrong value under
/// the current injection?
bool condition_fails(const dram::ColumnSimulator& sim, dram::Side side,
                     const DetectionCondition& cond);

/// Boolean verdict plus the continuous sense margin behind it, from the
/// same single transient.  `margin` is the final read's bitline
/// differential signed so that margin > 0 <=> the read agrees with
/// cond.expected (the condition passes); its magnitude says how far the
/// sense decision was from flipping.  The surrogate border search
/// (analysis/surrogate.hpp) root-finds on this margin over R instead of
/// bisecting the boolean, which is where its probe savings come from.
struct ConditionOutcome {
  bool fails = false;
  double margin = 0.0;  // V, bitline differential
};
ConditionOutcome condition_outcome(const dram::ColumnSimulator& sim,
                                   dram::Side side,
                                   const DetectionCondition& cond);

/// A condition is a valid test only if it *passes* on the defect-free
/// column under the same stress condition (otherwise it flags healthy
/// devices).  Call with no defect injected.
bool condition_valid_on_healthy(const dram::ColumnSimulator& sim,
                                dram::Side side,
                                const DetectionCondition& cond);

/// Build the candidate list (transition candidates first, then immediate
/// retention, then delayed retention), with k derived at the current
/// injection value.
std::vector<DetectionCondition> candidate_conditions(
    const dram::ColumnSimulator& sim, dram::Side side,
    const DetectionOptions& opt = {});

/// First candidate that fails under the current injection.
std::optional<DetectionCondition> derive_detection_condition(
    const dram::ColumnSimulator& sim, dram::Side side,
    const DetectionOptions& opt = {});

}  // namespace dramstress::analysis
