// Adaptive (LTE-controlled) transient engine: accuracy against the analytic
// solution and the fixed-step reference, exact breakpoint landing, modified
// Newton reuse, determinism across thread counts, and the tier-1 accuracy
// gate comparing adaptive vs fixed border resistances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/border.hpp"
#include "analysis/result_plane.hpp"
#include "circuit/mna.hpp"
#include "circuit/transient.hpp"
#include "dram/column_reference.hpp"
#include "numeric/interp.hpp"
#include "numeric/rootfind.hpp"
#include "stress/stress.hpp"

using namespace dramstress;
using namespace dramstress::circuit;

namespace {

// Append-style concatenation: GCC 12 -O3 flags the inlined
// operator+(const char*, string&&) with a spurious -Wrestrict.
std::string seq_name(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

/// RC discharge fixture: C charged to v0 through nothing, bleeding into R.
struct RcRun {
  double max_err = 0.0;     // vs analytic, over the recorded trace
  long accepted = 0;
  long rejected = 0;
};

RcRun run_rc(const TransientOptions& topt, double r, double c, double v0,
             double t_end) {
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add_resistor("R1", a, kGround, r);
  nl.add_capacitor("C1", a, kGround, c);
  MnaSystem sys(nl);
  TransientSim sim(sys, topt);
  sim.set_initial_condition(a, v0);
  sim.add_probe("v", a);
  sim.run(t_end);

  RcRun out;
  out.accepted = sim.accepted_steps();
  out.rejected = sim.rejected_steps();
  const Trace& tr = sim.trace();
  const size_t p = tr.probe_index("v");
  const double tau = r * c;
  for (size_t k = 0; k < tr.time.size(); ++k) {
    const double exact = v0 * std::exp(-tr.time[k] / tau);
    out.max_err = std::max(out.max_err, std::fabs(tr.samples[p][k] - exact));
  }
  return out;
}

/// The O3 border the production (adaptive) engine finds, and the detection
/// condition behind it.
analysis::BorderResult adaptive_border() {
  dram::DramColumn column;
  const defect::Defect d{defect::DefectKind::O3, dram::Side::True};
  dram::ColumnSimulator sim(column, stress::nominal_condition());
  const analysis::BorderResult br = analysis::analyze_defect(column, d, sim);
  EXPECT_TRUE(br.br.has_value());
  return br;
}

/// The O3 border of `cond` on the fixed-step reference: the column's
/// historical configuration (dt 0.1 ns, every 4th step recorded, 256 steps
/// per retention pause) on the scalar engine, searched like the classic
/// border search -- the coarse scan locates the first failing grid point,
/// then log-space bisection to log_tol.
double fixed_step_border(const analysis::DetectionCondition& cond) {
  dram::DramColumn column;
  const defect::Defect d{defect::DefectKind::O3, dram::Side::True};
  dram::ReferenceOptions ro;
  ro.transient.record_stride = 4;
  const dram::ColumnReference ref(column, stress::nominal_condition(), ro);
  const defect::SweepRange range = defect::default_sweep_range(d.kind);
  defect::Injection inj(column, d, range.lo);
  const double init = dram::physical_level(d.side, cond.init_logical,
                                           ref.conditions().vdd);
  auto fails_at = [&](double r) {
    inj.set_value(r);
    return ref.run(cond.ops, init, d.side).last_read_bit() != cond.expected;
  };
  const analysis::BorderOptions opt;
  const std::vector<double> grid =
      numeric::logspace(range.lo, range.hi, opt.scan_points);
  size_t edge = 0;
  while (edge < grid.size() && !fails_at(grid[edge])) ++edge;
  EXPECT_GT(edge, 0u) << "fails across the whole range";
  EXPECT_LT(edge, grid.size()) << "never fails";
  if (edge == 0 || edge == grid.size()) return 0.0;
  return numeric::bisect_predicate_log(fails_at, grid[edge - 1], grid[edge],
                                       {.x_tol = opt.log_tol});
}

}  // namespace

TEST(Adaptive, RcDischargeMeetsToleranceWithFewerSteps) {
  const double r = 1e3, c = 1e-9, v0 = 1.0;  // tau = 1 us
  const double t_end = 5e-6;

  TransientOptions fixed;
  fixed.dt = 1e-9;
  const RcRun ref = run_rc(fixed, r, c, v0, t_end);
  EXPECT_EQ(ref.accepted, 5000);
  EXPECT_LT(ref.max_err, 5e-3);  // fixed fine-step reference is near-exact

  TransientOptions adapt = fixed;
  adapt.adaptive = true;
  const RcRun a = run_rc(adapt, r, c, v0, t_end);
  // Accuracy within the engine's documented bound at the default tolerance,
  // using an order of magnitude fewer steps than the fixed reference.
  EXPECT_LT(a.max_err, 0.05 * v0);
  EXPECT_LT(a.accepted, ref.accepted / 10);
  EXPECT_GT(a.accepted, 2);

  // Tightening the tolerance buys accuracy with more steps.
  TransientOptions tight = adapt;
  tight.lte_tol = 2e-4;
  const RcRun t = run_rc(tight, r, c, v0, t_end);
  EXPECT_LT(t.max_err, a.max_err);
  EXPECT_GT(t.accepted, a.accepted);
}

TEST(Adaptive, StepsLandExactlyOnWaveformEdges) {
  // Pulse through R into C: the PWL corners at 10/11/20/21 ns must appear
  // as exact trace times, never integrated across.
  Waveform w = Waveform::pwl();
  w.add_point(0.0, 0.0);
  w.add_point(10e-9, 0.0);
  w.add_point(11e-9, 1.0);
  w.add_point(20e-9, 1.0);
  w.add_point(21e-9, 0.0);

  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add_voltage_source("V1", in, kGround, w);
  nl.add_resistor("R1", in, out, 1e3);
  nl.add_capacitor("C1", out, kGround, 1e-12);
  MnaSystem sys(nl);

  TransientOptions topt;
  topt.adaptive = true;
  topt.dt = 0.5e-9;
  TransientSim sim(sys, topt);
  sim.add_probe("out", out);
  sim.run(40e-9);

  const auto& times = sim.trace().time;
  ASSERT_TRUE(std::is_sorted(times.begin(), times.end()));
  for (const double edge : {10e-9, 11e-9, 20e-9, 21e-9}) {
    const bool hit = std::binary_search(times.begin(), times.end(), edge);
    EXPECT_TRUE(hit) << "no accepted step at edge t=" << edge;
  }
  // The flat holds are cheap.  A fixed grid resolving the 1 ns ramps
  // (tau = RC = 1 ns) at the ~30 ps the LTE controller chooses there would
  // take ~1300 steps over 40 ns; adaptive concentrates work at the edges.
  EXPECT_LT(sim.accepted_steps(), 300);
}

TEST(Adaptive, ModifiedNewtonReusesFactorizations) {
  // A ladder big enough for the sparse backend; flat holds let the
  // controller keep dt (and hence the factorization key) stable.
  Netlist nl;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 20; ++i)
    nodes.push_back(nl.node(seq_name("n", i)));
  nl.add_voltage_source("V1", nodes[0], kGround, Waveform::dc(1.0));
  for (int i = 0; i + 1 < 20; ++i) {
    nl.add_resistor(seq_name("R", i), nodes[static_cast<size_t>(i)],
                    nodes[static_cast<size_t>(i) + 1], 1e3);
    nl.add_capacitor(seq_name("C", i),
                     nodes[static_cast<size_t>(i) + 1], kGround, 1e-12);
  }
  MnaSystem sys(nl);
  ASSERT_TRUE(sys.using_sparse());

  TransientOptions topt;
  topt.adaptive = true;
  topt.dt = 0.1e-9;
  TransientSim sim(sys, topt);
  sim.run(100e-9);

  // Modified Newton must have skipped factorization work, and symbolic
  // analysis must have run exactly once (no pattern rebuilds).
  EXPECT_GT(sim.accepted_steps(), 0);
  EXPECT_GT(sys.jacobian_reuse_count(), 0);
  EXPECT_GE(sys.refactor_count(), 1);
}

TEST(Adaptive, PlaneSetIdenticalAcrossThreadCounts) {
  // The determinism contract extends to the adaptive engine: per-worker
  // clones take identical step sequences, so planes are bit-identical for
  // every thread count.
  const defect::Defect d{defect::DefectKind::O3, dram::Side::True};
  dram::SimSettings settings;
  analysis::PlaneOptions opt;
  opt.num_r_points = 4;
  opt.ops_per_point = 2;
  opt.r_lo = 30e3;
  opt.r_hi = 1e6;

  dram::DramColumn col1;
  dram::ColumnSimulator sim1(col1, stress::nominal_condition(), settings);
  opt.threads = 1;
  const analysis::PlaneSet one =
      analysis::generate_plane_set(col1, d, sim1, opt);

  dram::DramColumn col4;
  dram::ColumnSimulator sim4(col4, stress::nominal_condition(), settings);
  opt.threads = 4;
  const analysis::PlaneSet four =
      analysis::generate_plane_set(col4, d, sim4, opt);

  ASSERT_EQ(one.w0.r_values, four.w0.r_values);
  EXPECT_EQ(one.w0.vsa, four.w0.vsa);  // exact double equality
  ASSERT_EQ(one.w0.curves.size(), four.w0.curves.size());
  for (size_t c = 0; c < one.w0.curves.size(); ++c)
    EXPECT_EQ(one.w0.curves[c].vc, four.w0.curves[c].vc) << "curve " << c;
  ASSERT_EQ(one.r.curves.size(), four.r.curves.size());
  for (size_t c = 0; c < one.r.curves.size(); ++c)
    EXPECT_EQ(one.r.curves[c].vc, four.r.curves[c].vc) << "r curve " << c;
}

TEST(AdaptiveAccuracy, BorderMatchesFixedStepReference) {
  // Tier-1 accuracy gate (tools/tier1.sh runs ctest -R AdaptiveAccuracy):
  // the adaptive engine must reproduce the fixed-step border resistance of
  // the paper's O3 workload within the documented 5% tolerance.
  const analysis::BorderResult br = adaptive_border();
  const double adaptive = br.br.value_or(0.0);
  const double fixed = fixed_step_border(br.condition);
  ASSERT_GT(fixed, 0.0);
  EXPECT_NEAR(adaptive, fixed, 0.05 * fixed)
      << "adaptive BR drifted from the fixed-step reference";
}
