// The column engine: one EnsembleMna drives N column clones ("lanes")
// through the same operation sequence at once.  Plane sweeps batch many
// lanes; ColumnSimulator::run (every other column transient) is one lane.
//
// Lanes share structure (the plane sweep clones one column per worker and
// only rewrites the injected defect value between points) but carry their
// own element values, initial cell voltage and solver state, so each
// lane's results are byte-identical to what a batch of size 1 -- and any
// other batch composition -- would produce.  The symbolic analysis, the
// per-mode stamp programs and the device-major assembly are built once in
// the constructor and amortized over every run of the batch.
//
// The compiled schedule's sample times and interval ends are common
// checkpoints at which every lane has landed exactly (EnsembleTransient::run
// semantics).  The initial conditions and the schedule walk are shared with
// the reference runner (column_reference.hpp).
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "circuit/ensemble_mna.hpp"
#include "dram/column_sim.hpp"

namespace dramstress::dram {

/// Results of one batched lane; its trace stays empty.
using EnsembleRunResult = RunResult;

/// Node voltages at t = 0 of a run whose addressed cell on `side` floats
/// at `vc_init` (Section 3): every source-driven node at its waveform's
/// t = 0 value (compile the sequence first), the bitlines at precharge,
/// reference cells at the reference level, idle cells empty.
std::vector<std::pair<circuit::NodeId, double>> floating_cell_ics(
    const DramColumn& col, const OperatingConditions& cond, Side side,
    double vc_init);

/// Walk `sched` once.  Each interval starts with `set_dt` of its proposal
/// step (`dt`, or span / del_steps for a retention interval, whichever is
/// larger); `advance(t)` integrates to exactly t; `sample(s)` reads one
/// scheduled sample.  With `early_stop` the walk ends right after the last
/// sample.  Observes the op.wall.* interval histograms while collecting.
void walk_schedule(
    const CompiledSchedule& sched, double dt, int del_steps, bool early_stop,
    const std::function<void(double)>& set_dt,
    const std::function<void(double)>& advance,
    const std::function<void(const CompiledSchedule::Sample&)>& sample);

class EnsembleColumnSim {
public:
  /// Bind N simulators as lanes.  All lanes must share operating
  /// conditions and settings; columns must be structurally identical.
  explicit EnsembleColumnSim(std::vector<const ColumnSimulator*> sims);

  size_t num_lanes() const { return sims_.size(); }
  const ColumnSimulator& lane(size_t l) const { return *sims_[l]; }

  /// Run `seq` on every lane whose active[] entry is nonzero (empty mask =
  /// all lanes), lane l's addressed cell starting at vc_init[l].  With
  /// `early_stop` the run ends right after the last scheduled sample --
  /// bisection probes only consume per-op results, so the tail of the
  /// final cycle (whose state no sample observes) is skipped.  `lte_scale`
  /// multiplies the step controller's LTE tolerance for this run only:
  /// probe runs that merely read a comparator bit tolerate a looser
  /// waveform than stress walks do, and the scale is a fixed constant per
  /// call site, so it never breaks batch-size determinism.  Inactive
  /// lanes get a default-constructed result.
  std::vector<EnsembleRunResult> run_batch(const OpSequence& seq, Side side,
                                           const std::vector<double>& vc_init,
                                           const std::vector<char>& active = {},
                                           bool early_stop = false,
                                           double lte_scale = 1.0);

  /// Batched read_of_initial: bit[l] of one read of a cell at vc_init[l].
  /// Entries for inactive lanes are -1.
  std::vector<int> read_of_initial_batch(const std::vector<double>& vc_init,
                                         Side side,
                                         const std::vector<char>& active = {},
                                         bool early_stop = true,
                                         double lte_scale = 1.0);

private:
  friend class ColumnSimulator;

  /// The body of run_batch, and of ColumnSimulator::run on a one-lane
  /// ensemble; `probes` also records each active lane's trace.
  std::vector<RunResult> run_lanes(const OpSequence& seq, Side side,
                                   const std::vector<double>& vc_init,
                                   const std::vector<char>& active,
                                   bool early_stop, double lte_scale,
                                   bool probes);

  std::vector<const ColumnSimulator*> sims_;
  circuit::EnsembleMna mna_;
};

}  // namespace dramstress::dram
