// Lockstep adaptive transient over an EnsembleMna.
//
// Each lane integrates with exactly the semantics of TransientSim's
// adaptive path -- its own LTE StepController, its own breakpoint
// registry (built from its own devices), its own Newton-failure halving
// -- so a lane's trajectory is a pure function of that lane's inputs and
// is bitwise independent of which other lanes share the batch.  What the
// ensemble shares is *work*: every round, all lanes that still have
// ground to cover attempt their next step together through one batched
// solve_lockstep call (device-major assembly, per-lane chord
// factorizations).  Lanes that reach t_end retire from the round set;
// run(t_end) returns when every active lane has landed exactly on t_end,
// which makes run() boundaries (operation samples, interval ends) the
// common checkpoints of a batched column simulation.
//
// Adaptive/LTE stepping only.  Probes (add_probe) record a lane's trace
// exactly as TransientSim::run_adaptive does: the start state, then every
// accepted step.  Lanes without probes record nothing.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "circuit/ensemble_mna.hpp"
#include "circuit/step_control.hpp"
#include "circuit/transient.hpp"

namespace dramstress::circuit {

class EnsembleTransient {
public:
  /// `active[l] == false` lanes are never stepped (lane retirement: a
  /// caller batching heterogeneous work can run a subset).  Pass an empty
  /// mask to step every lane.
  EnsembleTransient(EnsembleMna& sys, TransientOptions options,
                    std::vector<char> active = {});

  void set_initial_condition(size_t lane, NodeId node, double volts);

  /// Record `node` of `lane` under `name` at the start and after every
  /// accepted step.  Must be called before the first run().
  void add_probe(size_t lane, const std::string& name, NodeId node);

  /// Change the proposal step for subsequent run() calls, all lanes.
  void set_dt(double dt);

  /// Advance every active lane to exactly t_end.
  void run(double t_end);

  double time(size_t lane) const { return time_[lane]; }
  double voltage(size_t lane, NodeId node) const {
    return EnsembleMna::voltage(x_[lane], node);
  }
  const numeric::Vector& state(size_t lane) const { return x_[lane]; }
  const Trace& trace(size_t lane) const { return traces_[lane]; }
  long accepted_steps(size_t lane) const { return accepted_[lane]; }
  long rejected_steps(size_t lane) const { return rejected_[lane]; }

private:
  void ensure_started();
  void commit(size_t lane, numeric::Vector&& x_new, double t_new,
              const StampContext& ctx);
  void record(size_t lane);

  // Concurrency: every field below is thread-confined to the sweep worker
  // that owns this EnsembleTransient (util/annotations.hpp conventions --
  // confinement is documented, not DS_GUARDED_BY-annotated, because no
  // mutex is involved).  Lanes share *work*, never state: lane l touches
  // only index l of each vector, so batching cannot couple trajectories.
  EnsembleMna* sys_;
  TransientOptions opt_;
  std::vector<char> active_;
  bool started_ = false;

  std::vector<numeric::Vector> x_;
  std::vector<double> time_;
  std::vector<char> first_step_done_;
  std::vector<long> accepted_;
  std::vector<long> rejected_;
  std::vector<BreakpointRegistry> breakpoints_;
  std::vector<std::optional<StepController>> ctrl_;
  std::vector<std::vector<NodeId>> probe_nodes_;  // [lane][probe]
  std::vector<Trace> traces_;

  // Per-run scratch, lane-indexed.
  std::vector<StampContext> ctx_;
  std::vector<numeric::Vector> x_try_;
  std::vector<NewtonResult> results_;
};

}  // namespace dramstress::circuit
