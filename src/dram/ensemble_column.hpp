// Batched column simulation: one EnsembleMna drives N per-worker column
// clones ("lanes") through the same operation sequence at once.
//
// Lanes share structure (the plane sweep clones one column per worker and
// only rewrites the injected defect value between points) but carry their
// own element values, initial cell voltage and solver state, so each
// lane's results are byte-identical to what a batch of size 1 -- and any
// other batch composition -- would produce.  The symbolic analysis, the
// per-mode stamp programs and the device-major assembly are built once in
// the constructor and amortized over every run of the batch.
//
// The run loop mirrors ColumnSimulator::run exactly: the compiled
// schedule's sample times and interval ends are common checkpoints at
// which every lane has landed exactly (EnsembleTransient::run semantics),
// so sampling logic carries over unchanged, per lane.
#pragma once

#include <optional>
#include <vector>

#include "circuit/ensemble_mna.hpp"
#include "dram/column_sim.hpp"

namespace dramstress::dram {

/// Per-operation results of one lane (no trace: batched runs feed plane
/// sweeps and bisection probes, which read bits and cell voltages only).
struct EnsembleRunResult {
  std::vector<OpResult> ops;
  double final_vc = 0.0;
};

class EnsembleColumnSim {
public:
  /// Bind N simulators as lanes.  All lanes must share operating
  /// conditions and settings, which supports() must accept; columns must
  /// be structurally identical.
  explicit EnsembleColumnSim(std::vector<ColumnSimulator*> sims);

  /// True when the ensemble engine can run `st`: adaptive stepping on a
  /// sparse-capable backend (the lanes always solve sparse, so fixed-step
  /// and dense-LU settings stay with ColumnSimulator).
  static bool supports(const SimSettings& st) {
    return st.adaptive && st.backend != circuit::SolverBackend::Dense;
  }

  size_t num_lanes() const { return sims_.size(); }
  ColumnSimulator& lane(size_t l) { return *sims_[l]; }

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
  std::vector<ColumnSimulator*> sims_;
  circuit::EnsembleMna mna_;
};

}  // namespace dramstress::dram
