// High-level facade: run an operation sequence on a (possibly defective)
// column under given operating conditions and report per-operation results.
//
// This is the workhorse of the whole flow: result planes, Vsa extraction,
// border-resistance bisection and stress probing all reduce to calls of
// ColumnSimulator::run with different initial cell voltages, defect values
// and operating corners.  Every run is one lane of the ensemble engine
// (ensemble_column.hpp): adaptive LTE-controlled stepping on sparse LU.
#pragma once

#include <optional>
#include <vector>

#include "circuit/transient.hpp"
#include "dram/command.hpp"

namespace dramstress::dram {

struct SimSettings {
  double dt = 0.1e-9;  // s, initial step of every clocked interval
  circuit::Integrator integrator = circuit::Integrator::BackwardEuler;
  circuit::NewtonOptions newton;
  CommandTiming timing;
  /// Retention (del) phases start from a step of dur/del_steps instead of dt.
  int del_steps = 256;
  // LTE-controlled stepping: it reproduces the fixed-step reference within
  // documented tolerance (docs/ENGINE.md) at a fraction of the steps.
  double lte_tol = 5e-4;   // relative LTE tolerance on node voltages
  double dt_min = 1e-13;   // s, smallest step
  double dt_max = 0.0;     // s, largest step; 0 = uncapped
  /// Modified Newton: reuse the last factorization while convergence is fast.
  bool reuse_jacobian = true;

  bool operator==(const SimSettings&) const = default;
};

struct OpResult {
  OpKind kind = OpKind::R;
  /// Logical value returned by the sense path (reads only).
  std::optional<int> bit;
  /// Bitline differential V(bt) - V(bc) at the read-decision sample (reads
  /// only, 0 otherwise).  `bit` is exactly `sense_margin > 0` -- the same
  /// comparison the sampler makes -- so the margin is a continuous measure
  /// of how close the read was to flipping.  The surrogate border search
  /// root-finds on it instead of bisecting the boolean.
  double sense_margin = 0.0;
  /// Addressed-cell storage voltage right after the active window.
  double vc = 0.0;
};

struct RunResult {
  std::vector<OpResult> ops;
  /// Probes "bt", "bc", "vc" at the start and after every accepted step;
  /// filled by ColumnSimulator::run only (batched lanes and sample-only
  /// runs record nothing).
  circuit::Trace trace;
  double final_vc = 0.0;

  /// Read bit of operation i; throws if that op was not a read.
  int read_bit(size_t i) const;
  /// Cell voltage after operation i.
  double vc_after(size_t i) const;
  /// Bit of the last read in the sequence; throws if none.
  int last_read_bit() const;
};

/// Count of full transient runs executed by the *calling thread* since it
/// started: one per active lane of an ensemble run (a ColumnSimulator::run
/// is a one-lane run).  The process-wide total is mirrored into the
/// `sim.transients` obs counter; this thread-local view exists so callers
/// that own a whole work item on one thread (the campaign runner, the
/// surrogate search) can meter the item by differencing around it.
long thread_transients();

class ColumnSimulator {
public:
  ColumnSimulator(DramColumn& column, OperatingConditions cond,
                  SimSettings settings = {});

  /// Run `seq` against the addressed cell on `side`, whose storage node
  /// starts at `vc_init` (the floating-cell initialization of Section 3),
  /// as a one-lane ensemble run with a recorded trace.
  RunResult run(const OpSequence& seq, double vc_init, Side side) const;

  /// Sample-only `run`: the same per-op results (read bits, sense margins,
  /// cell-voltage samples) bit for bit, but the run stops right after its
  /// last scheduled sample and records no trace, so `final_vc` is the
  /// cell voltage at that stop rather than at the end of the final cycle.
  /// For callers that read sampled values only.
  RunResult run_samples(const OpSequence& seq, double vc_init,
                        Side side) const;

  /// Single read of a cell initialized to `vc_init`: the probe used for
  /// Vsa extraction.  Returns the logical bit (a sample-only run).
  int read_of_initial(double vc_init, Side side) const;

  const OperatingConditions& conditions() const { return cond_; }
  void set_conditions(const OperatingConditions& cond) { cond_ = cond; }
  const SimSettings& settings() const { return settings_; }
  DramColumn& column() const { return *column_; }

private:
  DramColumn* column_;
  OperatingConditions cond_;
  SimSettings settings_;
};

}  // namespace dramstress::dram
