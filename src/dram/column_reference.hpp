// Reference column runner: the column's operation sequence on the scalar
// circuit engine (TransientSim over MnaSystem), fixed-step or adaptive,
// dense or sparse, as the caller sets.  It shares the initial conditions,
// the compiled schedule and the schedule walk with the column engine
// (ensemble_column.hpp).  An oracle for the tests and bench/engine_perf
// only: no SimSettings field, CLI flag or spec key reaches it.
#pragma once

#include "circuit/mna.hpp"
#include "circuit/transient.hpp"
#include "dram/column_sim.hpp"

namespace dramstress::dram {

struct ReferenceOptions {
  /// Every run's stepping, integrator, Newton and trace decimation (the
  /// temperature comes from the operating conditions).
  circuit::TransientOptions transient;
  circuit::SolverBackend backend = circuit::SolverBackend::Auto;
};

class ColumnReference {
public:
  ColumnReference(DramColumn& column, OperatingConditions cond,
                  ReferenceOptions options = {});

  /// As ColumnSimulator::run / read_of_initial, on the scalar engine.
  RunResult run(const OpSequence& seq, double vc_init, Side side) const;
  int read_of_initial(double vc_init, Side side) const;

  const OperatingConditions& conditions() const { return cond_; }

private:
  DramColumn* column_;
  OperatingConditions cond_;
  ReferenceOptions opt_;
};

/// Vsa of the column as it stands (defect injected) on the reference
/// runner: the read-outcome bisection of analysis::extract_vsa to `tol`,
/// every probe a reference transient.  A read that does not flip over
/// [0, vdd] gives 0 (always 1) or vdd (always 0).
double reference_vsa(const ColumnReference& ref, Side side, double tol);

}  // namespace dramstress::dram
