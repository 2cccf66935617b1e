// Modified-nodal-analysis assembly and the damped Newton iteration shared by
// the DC operating point and every transient step.
//
// Two linear-algebra backends share one assembly code path (devices stamp
// through the same Stamper either way):
//   * dense: the seed path -- O(n^3) partial-pivot LU per iteration.  Kept
//     for tiny systems and as the reference in equivalence tests.
//   * sparse: the MNA pattern is captured once at construction (union of
//     every analysis mode's stamps), and a SparseLuSolver reuses that
//     pattern's symbolic analysis across all refactorizations.  With
//     NewtonOptions::reuse_jacobian the factorization itself is also
//     reused across iterations and steps (modified Newton): the residual
//     is always exact, so convergence checks stay sound, and a stalling
//     iteration triggers a refactorization.
#pragma once

#include "circuit/netlist.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"

namespace dramstress::circuit {

struct NewtonOptions {
  double v_tol = 1e-6;       // V, convergence on max |dx| for node voltages
  double res_tol = 1e-9;     // A, convergence on max KCL residual
  int max_iter = 120;
  double max_step = 0.5;     // V, per-iteration voltage update clamp
  double gmin = 1e-12;       // S, conductance to ground at every node
  /// Modified Newton (sparse backend only): start from the last
  /// factorization when mode/dt/gmin/temperature are unchanged and only
  /// refactor when the residual stalls.  The exact-residual convergence
  /// test is unaffected; only the iteration path changes.
  bool reuse_jacobian = false;

  bool operator==(const NewtonOptions&) const = default;
};

struct NewtonResult {
  bool converged = false;
  int iterations = 0;
  double residual = 0.0;  // final max |f|
};

/// Linear-solver backend selection for MnaSystem.
enum class SolverBackend {
  Auto,    // sparse for systems of >= 16 unknowns, dense below
  Dense,   // force the seed dense path
  Sparse,  // force the sparse path
};

/// Binds a Netlist to an unknown vector layout:
///   unknowns [0, num_nodes)                 -> node voltages
///   unknowns [num_nodes, num_nodes+branches) -> source branch currents
class MnaSystem {
public:
  explicit MnaSystem(Netlist& netlist,
                     SolverBackend backend = SolverBackend::Auto);

  int num_nodes() const { return num_nodes_; }
  int num_branches() const { return num_branches_; }
  int num_unknowns() const { return num_nodes_ + num_branches_; }

  Netlist& netlist() { return *netlist_; }
  const Netlist& netlist() const { return *netlist_; }

  bool using_sparse() const { return use_sparse_; }

  /// Assemble residual f(x) and Jacobian J(x) for the given context
  /// (ctx.x must point at x).  gmin is added on every node diagonal.
  void assemble(const StampContext& ctx, double gmin, numeric::Matrix& jac,
                numeric::Vector& res) const;

  /// Same assembly into the sparse structure (jac must carry this system's
  /// pattern; pass the matrix returned by sparse_jacobian()).
  void assemble_sparse(const StampContext& ctx, double gmin,
                       numeric::SparseMatrix& jac, numeric::Vector& res) const;

  /// The system's captured sparse Jacobian (finalized pattern).  Throws if
  /// the backend is dense.
  numeric::SparseMatrix& sparse_jacobian() const;

  /// Damped Newton: iterate J dx = -f from the given starting point.
  /// `ctx` carries mode/time/dt/temperature; ctx.x is set internally.
  NewtonResult solve(StampContext ctx, numeric::Vector& x,
                     const NewtonOptions& opt) const;

  /// Voltage of node n in an unknown vector.
  static double voltage(const numeric::Vector& x, NodeId n) {
    return n == kGround ? 0.0 : x[static_cast<size_t>(n - 1)];
  }

  // Solver-cost counters (tests, perf bench).
  long factor_count() const { return slu_.factor_count(); }
  long refactor_count() const { return slu_.refactor_count(); }
  /// Newton iterations that skipped factorization entirely (modified
  /// Newton running on a previous step's factorization).
  long jacobian_reuse_count() const { return reuse_count_; }

private:
  /// Capture the structural pattern by stamping every device in every
  /// analysis mode at a zero iterate.
  void capture_pattern();

  bool factor_key_matches(const StampContext& ctx, double gmin) const {
    return have_factor_ && fkey_mode_ == ctx.mode && fkey_dt_ == ctx.dt &&
           fkey_gmin_ == gmin && fkey_temp_ == ctx.temperature;
  }

  Netlist* netlist_;
  int num_nodes_ = 0;
  int num_branches_ = 0;
  bool use_sparse_ = false;
  // Scratch storage reused across Newton iterations.
  mutable numeric::Matrix jac_;
  mutable numeric::SparseMatrix sjac_;
  mutable numeric::Vector res_;
  mutable numeric::Vector dx_;
  mutable numeric::LuSolver lu_;
  mutable numeric::SparseLuSolver slu_;
  // Modified-Newton factorization identity.
  mutable bool have_factor_ = false;
  mutable AnalysisMode fkey_mode_ = AnalysisMode::DcOp;
  mutable double fkey_dt_ = 0.0;
  mutable double fkey_gmin_ = 0.0;
  mutable double fkey_temp_ = 0.0;
  mutable long reuse_count_ = 0;
};

}  // namespace dramstress::circuit
