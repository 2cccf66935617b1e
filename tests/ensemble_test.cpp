// Contract of the batched ensemble engine (docs/ENGINE.md):
//  * every plane is bit-identical for every batch size >= 1 and every
//    thread count -- each lane's trajectory is a pure function of its own
//    inputs, never of its batch neighbours;
//  * the default lane count is sized to the worker team, so planes are
//    also identical across default-option thread counts, and no
//    environment variable can change them;
//  * a ColumnSimulator::run is one lane of a batch, byte for byte;
//  * a sample-only run (early stop, no trace) samples exactly what the
//    full run samples;
//  * the ensemble engine tracks the scalar adaptive engine (the reference
//    runner) within the solver tolerances (they share semantics but not
//    roundoff: the ensemble adds chord factorization reuse and a fused
//    MOSFET path);
//  * both engines count the steps they force through at dt_min;
//  * lanes retire independently: an active-mask subset returns exactly
//    what the full batch returned for those lanes;
//  * LTE control is per lane: lanes with different dynamics accept a
//    different number of steps under one shared schedule;
//  * the Fig. 2 golden samples hold under the ensemble engine;
//  * the warm-started border search returns the same BR as the full scan.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/border.hpp"
#include "analysis/result_plane.hpp"
#include "circuit/ensemble_mna.hpp"
#include "circuit/ensemble_transient.hpp"
#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "circuit/transient.hpp"
#include "dram/column.hpp"
#include "dram/column_reference.hpp"
#include "dram/column_sim.hpp"
#include "dram/ensemble_column.hpp"
#include "numeric/interp.hpp"
#include "obs/metrics.hpp"
#include "stress/stress.hpp"
#include "util/json.hpp"

namespace dramstress {
namespace {

using defect::Defect;
using defect::DefectKind;
using dram::Side;

analysis::PlaneOptions small_plane_options() {
  analysis::PlaneOptions opt;
  opt.num_r_points = 4;
  opt.ops_per_point = 2;
  opt.r_lo = 30e3;
  opt.r_hi = 1e6;
  return opt;
}

analysis::PlaneSet plane_set_with(const analysis::PlaneOptions& opt) {
  dram::DramColumn col;
  dram::ColumnSimulator sim(col, stress::nominal_condition());
  const Defect d{DefectKind::O3, Side::True};
  return analysis::generate_plane_set(col, d, sim, opt);
}

void expect_identical(const analysis::ResultPlane& a,
                      const analysis::ResultPlane& b) {
  ASSERT_EQ(a.r_values, b.r_values);
  ASSERT_EQ(a.vsa, b.vsa);  // exact double equality: bit-identical
  ASSERT_EQ(a.curves.size(), b.curves.size());
  for (size_t c = 0; c < a.curves.size(); ++c) {
    EXPECT_EQ(a.curves[c].op_number, b.curves[c].op_number);
    EXPECT_EQ(a.curves[c].from_above, b.curves[c].from_above);
    EXPECT_EQ(a.curves[c].vc, b.curves[c].vc) << "curve " << c;
  }
}

void expect_identical(const analysis::PlaneSet& a,
                      const analysis::PlaneSet& b) {
  expect_identical(a.w0, b.w0);
  expect_identical(a.w1, b.w1);
  expect_identical(a.r, b.r);
}

std::string plane_json(const analysis::PlaneSet& s) {
  util::json::Writer w;
  analysis::append_json(w, s);
  return w.str();
}

/// The scalar engine's write planes and Vsa curve over the grid of `opt`,
/// the reference the ensemble plane engine is held to: per R point, the
/// adaptive reference runner bisects Vsa over its reads and runs each
/// write walk from the opposite rail.
struct ScalarWritePlanes {
  std::vector<double> vsa;                  // [R index]
  std::vector<std::vector<double>> w0, w1;  // [op][R index]
};

ScalarWritePlanes scalar_write_planes(const analysis::PlaneOptions& opt) {
  const Defect d{DefectKind::O3, Side::True};
  const std::vector<double> rs =
      numeric::logspace(opt.r_lo, opt.r_hi, opt.num_r_points);
  const size_t n_ops = static_cast<size_t>(opt.ops_per_point);
  const std::vector<double> zeros(rs.size(), 0.0);
  ScalarWritePlanes out;
  out.w0.assign(n_ops, zeros);
  out.w1 = out.w0;
  for (size_t i = 0; i < rs.size(); ++i) {
    dram::DramColumn col;
    defect::Injection inj(col, d, rs[i]);
    dram::ReferenceOptions ro;
    ro.transient.adaptive = true;
    const dram::ColumnReference ref(col, stress::nominal_condition(), ro);
    const double vdd = ref.conditions().vdd;
    out.vsa.push_back(dram::reference_vsa(ref, d.side, opt.vsa.tolerance));
    const dram::OpSequence w0s(n_ops, dram::Operation::w0());
    const dram::OpSequence w1s(n_ops, dram::Operation::w1());
    const dram::RunResult r0 =
        ref.run(w0s, dram::physical_level(d.side, 1, vdd), d.side);
    const dram::RunResult r1 =
        ref.run(w1s, dram::physical_level(d.side, 0, vdd), d.side);
    for (size_t k = 0; k < n_ops; ++k) {
      out.w0[k][i] = r0.vc_after(k);
      out.w1[k][i] = r1.vc_after(k);
    }
  }
  return out;
}

TEST(Ensemble, PlaneSetIdenticalAcrossBatchSizes) {
  analysis::PlaneOptions opt = small_plane_options();
  opt.threads = 1;
  opt.batch = 1;
  const analysis::PlaneSet one = plane_set_with(opt);
  opt.batch = 4;
  const analysis::PlaneSet four = plane_set_with(opt);
  opt.batch = 16;  // more lanes than R points: a single partial batch
  const analysis::PlaneSet sixteen = plane_set_with(opt);
  expect_identical(one, four);
  expect_identical(one, sixteen);
}

TEST(Ensemble, PlaneSetIdenticalAcrossThreadCounts) {
  analysis::PlaneOptions opt = small_plane_options();
  opt.batch = 2;
  opt.threads = 1;
  const analysis::PlaneSet one = plane_set_with(opt);
  opt.threads = 4;
  const analysis::PlaneSet four = plane_set_with(opt);
  expect_identical(one, four);
}

TEST(Ensemble, DefaultLanesIdenticalAcrossThreadCounts) {
  // Default options size the lanes to the team: the 4-point grid runs
  // batches of 4, 2 and 1 lanes on 1, 3 and 4 threads.  The plane sets
  // must be byte-identical, and the retired DRAMSTRESS_BATCH variable must
  // change nothing.
  analysis::PlaneOptions opt = small_plane_options();
  ASSERT_EQ(opt.batch, 0);
  opt.threads = 1;
  const std::string one = plane_json(plane_set_with(opt));
  opt.threads = 3;
  EXPECT_EQ(plane_json(plane_set_with(opt)), one);
  opt.threads = 4;
  EXPECT_EQ(plane_json(plane_set_with(opt)), one);

  ASSERT_EQ(::setenv("DRAMSTRESS_BATCH", "3", 1), 0);
  opt.threads = 1;
  const std::string with_env = plane_json(plane_set_with(opt));
  ::unsetenv("DRAMSTRESS_BATCH");
  EXPECT_EQ(with_env, one);
}

TEST(Ensemble, MatchesScalarEngineWithinTolerance) {
  analysis::PlaneOptions opt = small_plane_options();
  opt.threads = 1;
  const ScalarWritePlanes scalar = scalar_write_planes(opt);
  const analysis::PlaneSet batched = plane_set_with(opt);

  // Sense thresholds: the batched extraction resolves the flip on a dyadic
  // grid of pitch <= tolerance, the scalar one bisects to the same
  // tolerance, so they agree within two tolerance widths.
  ASSERT_EQ(scalar.vsa.size(), batched.w1.vsa.size());
  for (size_t i = 0; i < scalar.vsa.size(); ++i)
    EXPECT_NEAR(scalar.vsa[i], batched.w1.vsa[i],
                2.0 * opt.vsa.tolerance + 1e-12)
        << "vsa at R index " << i;

  // Write planes: same initial conditions, same LTE semantics -- the
  // engines differ only in roundoff-level solver details.
  const std::pair<const std::vector<std::vector<double>>*,
                  const analysis::ResultPlane*>
      pairs[] = {{&scalar.w0, &batched.w0}, {&scalar.w1, &batched.w1}};
  for (const auto& [s, b] : pairs) {
    ASSERT_EQ(s->size(), b->curves.size());
    for (size_t c = 0; c < s->size(); ++c)
      for (size_t i = 0; i < (*s)[c].size(); ++i)
        EXPECT_NEAR((*s)[c][i], b->curves[c].vc[i], 0.02)
            << "curve " << c << " R index " << i;
  }
}

TEST(Ensemble, ColumnRunIsOneLaneOfABatch) {
  // One ColumnSimulator::run of w1 w0 r on O3 at 200 kOhm must equal lane
  // 1 of a 3-lane batch whose other lanes sit at 30 kOhm and 1 MOhm, and
  // carry a trace that ends on its final cell voltage.
  const Defect d{DefectKind::O3, Side::True};
  const dram::OpSequence seq = {dram::Operation::w1(), dram::Operation::w0(),
                                dram::Operation::r()};
  const double r_values[] = {30e3, 200e3, 1e6};

  dram::DramColumn single_col;
  defect::Injection single_inj(single_col, d, r_values[1]);
  const dram::ColumnSimulator single(single_col, stress::nominal_condition());
  const dram::RunResult one = single.run(seq, 0.0, d.side);

  std::vector<std::unique_ptr<dram::DramColumn>> cols;
  std::vector<std::unique_ptr<defect::Injection>> injs;
  std::vector<std::unique_ptr<dram::ColumnSimulator>> sims;
  std::vector<const dram::ColumnSimulator*> lanes;
  for (const double r : r_values) {
    cols.push_back(std::make_unique<dram::DramColumn>());
    injs.push_back(std::make_unique<defect::Injection>(*cols.back(), d, r));
    sims.push_back(std::make_unique<dram::ColumnSimulator>(
        *cols.back(), stress::nominal_condition()));
    lanes.push_back(sims.back().get());
  }
  dram::EnsembleColumnSim ens(lanes);
  const std::vector<dram::EnsembleRunResult> batch =
      ens.run_batch(seq, d.side, {0.0, 0.0, 0.0});

  const dram::RunResult& lane = batch[1];
  ASSERT_EQ(one.ops.size(), lane.ops.size());
  for (size_t i = 0; i < one.ops.size(); ++i) {
    EXPECT_EQ(one.ops[i].bit, lane.ops[i].bit) << "op " << i;
    EXPECT_EQ(one.ops[i].sense_margin, lane.ops[i].sense_margin) << "op " << i;
    EXPECT_EQ(one.ops[i].vc, lane.ops[i].vc) << "op " << i;
  }
  EXPECT_EQ(one.final_vc, lane.final_vc);

  const circuit::Trace& tr = one.trace;
  ASSERT_FALSE(tr.time.empty());
  EXPECT_EQ(tr.time.front(), 0.0);
  for (size_t k = 1; k < tr.time.size(); ++k)
    EXPECT_LE(tr.time[k - 1], tr.time[k]) << "sample " << k;
  EXPECT_EQ(tr.back("vc"), one.final_vc);
}

TEST(Ensemble, SampleOnlyRunMatchesFullRun) {
  // A sample-only run stops right after its last sample and records no
  // trace; every per-op sample must still equal the full run's bit for
  // bit, at the same transient cost, for transition, retention and
  // coupling sequences on a series and a shunt defect at two corners.
  using dram::Operation;
  const dram::OpSequence seqs[] = {
      {Operation::w1(), Operation::w1(), Operation::w0(), Operation::r()},
      {Operation::w1(), Operation::del(100e-6), Operation::r()},
      {Operation::w1(), Operation::nw0(), Operation::nw0(), Operation::r()},
  };
  const dram::OperatingConditions corners[] = {{2.4, 27.0, 60e-9, 0.5},
                                               {2.4, 87.0, 55e-9, 0.5}};
  const std::pair<Defect, double> defects[] = {
      {{DefectKind::O3, Side::True}, 200e3},
      {{DefectKind::Sg, Side::Comp}, 500e3}};
  for (const auto& [d, r] : defects) {
    for (const dram::OperatingConditions& cond : corners) {
      dram::DramColumn col;
      defect::Injection inj(col, d, r);
      const dram::ColumnSimulator sim(col, cond);
      for (const dram::OpSequence& seq : seqs) {
        for (const double vc0 : {0.0, cond.vdd}) {
          const std::string what = d.name() + " " + dram::to_string(seq) +
                                   " T=" + std::to_string(cond.temp_c) +
                                   " vc0=" + std::to_string(vc0);
          const long t0 = dram::thread_transients();
          const dram::RunResult full = sim.run(seq, vc0, d.side);
          const long t1 = dram::thread_transients();
          const dram::RunResult cut = sim.run_samples(seq, vc0, d.side);
          EXPECT_EQ(dram::thread_transients() - t1, t1 - t0) << what;
          EXPECT_TRUE(cut.trace.time.empty()) << what;
          ASSERT_EQ(full.ops.size(), cut.ops.size()) << what;
          for (size_t i = 0; i < full.ops.size(); ++i) {
            EXPECT_EQ(full.ops[i].bit, cut.ops[i].bit) << what << " op " << i;
            EXPECT_EQ(full.ops[i].sense_margin, cut.ops[i].sense_margin)
                << what << " op " << i;
            EXPECT_EQ(full.ops[i].vc, cut.ops[i].vc) << what << " op " << i;
          }
        }
      }
      for (const double vc0 : {0.0, cond.vdd / 2.0, cond.vdd}) {
        const long t0 = dram::thread_transients();
        const int bit =
            sim.run({Operation::r()}, vc0, d.side).read_bit(0);
        const long t1 = dram::thread_transients();
        EXPECT_EQ(sim.read_of_initial(vc0, d.side), bit)
            << d.name() << " vc0=" << vc0;
        EXPECT_EQ(dram::thread_transients() - t1, t1 - t0);
      }
    }
  }
}

TEST(Ensemble, ForcedFloorStepsCountedInBothEngines) {
  // A decay too fast for a dt_min of a fifth of its time constant under a
  // tight LTE tolerance: steps land on the floor with error > 1 and are
  // committed anyway.  Both engines must count them.
  if (!obs::compiled_in()) GTEST_SKIP() << "metrics compiled out";
  auto build = [](circuit::Netlist& nl) {
    const circuit::NodeId a = nl.node("a");
    nl.add_resistor("R1", a, circuit::kGround, 2.5);
    nl.add_capacitor("C1", a, circuit::kGround, 1e-9);  // tau = 2.5 ns
    return a;
  };
  auto forced = [] {
    return obs::metrics_snapshot().counter("step.forced_floor");
  };
  circuit::TransientOptions opt;
  opt.dt = 0.5e-9;
  opt.adaptive = true;
  opt.lte_tol = 1e-9;
  opt.dt_min = 0.5e-9;

  circuit::Netlist scalar_nl;
  const circuit::NodeId node = build(scalar_nl);
  circuit::MnaSystem scalar_sys(scalar_nl);
  circuit::TransientSim scalar(scalar_sys, opt);
  scalar.set_initial_condition(node, 1.0);
  const long before_scalar = forced();
  scalar.run(20e-9);
  const long scalar_forced = forced() - before_scalar;
  EXPECT_GT(scalar_forced, 0);
  EXPECT_LE(scalar_forced, scalar.accepted_steps());

  circuit::Netlist lane_nl;
  ASSERT_EQ(build(lane_nl), node);
  circuit::EnsembleMna ens_sys({&lane_nl});
  circuit::EnsembleTransient ens(ens_sys, opt);
  ens.set_initial_condition(0, node, 1.0);
  const long before_ens = forced();
  ens.run(20e-9);
  const long ens_forced = forced() - before_ens;
  EXPECT_GT(ens_forced, 0);
  EXPECT_LE(ens_forced, ens.accepted_steps(0));
}

TEST(Ensemble, LaneRetirementAndActiveMask) {
  // Four lanes of the same column at different defect resistances, read
  // from decisive initial levels: each lane's bit must match the scalar
  // simulator's, and deactivating lanes must not change the others.
  const Defect d{DefectKind::O3, Side::True};
  const double r_values[] = {50e3, 200e3, 1e6, 5e6};
  const double vc_values[] = {0.2, 1.8, 0.2, 1.8};

  std::vector<std::unique_ptr<dram::DramColumn>> cols;
  std::vector<std::unique_ptr<defect::Injection>> injs;
  std::vector<std::unique_ptr<dram::ColumnSimulator>> sims;
  std::vector<const dram::ColumnSimulator*> lanes;
  for (double r : r_values) {
    cols.push_back(std::make_unique<dram::DramColumn>());
    injs.push_back(std::make_unique<defect::Injection>(*cols.back(), d, r));
    sims.push_back(std::make_unique<dram::ColumnSimulator>(
        *cols.back(), stress::nominal_condition()));
    lanes.push_back(sims.back().get());
  }
  dram::EnsembleColumnSim ens(lanes);
  const std::vector<double> vc(vc_values, vc_values + 4);
  const std::vector<int> full = ens.read_of_initial_batch(vc, d.side);
  ASSERT_EQ(full.size(), 4u);
  for (size_t l = 0; l < 4; ++l) {
    dram::DramColumn col;
    defect::Injection inj(col, d, r_values[l]);
    dram::ColumnSimulator scalar(col, stress::nominal_condition());
    EXPECT_EQ(full[l], scalar.read_of_initial(vc_values[l], d.side))
        << "lane " << l;
  }

  const std::vector<char> mask = {1, 0, 1, 0};
  const std::vector<int> sub = ens.read_of_initial_batch(vc, d.side, mask);
  ASSERT_EQ(sub.size(), 4u);
  EXPECT_EQ(sub[0], full[0]);
  EXPECT_EQ(sub[1], -1);
  EXPECT_EQ(sub[2], full[2]);
  EXPECT_EQ(sub[3], -1);
}

TEST(Ensemble, PerLaneLteControl) {
  // Two RC lanes with time constants 40x apart under one shared schedule:
  // the per-lane LTE controllers must pick different step sequences, and
  // both lanes must still land on the analytic RC decay.
  auto build = [](circuit::Netlist& nl, double r) {
    const circuit::NodeId a = nl.node("a");
    nl.add_resistor("R1", a, circuit::kGround, r);
    nl.add_capacitor("C1", a, circuit::kGround, 1e-9);
    return a;
  };
  circuit::Netlist fast, slow;
  const circuit::NodeId node = build(fast, 25.0);   // tau = 25 ns
  const circuit::NodeId node2 = build(slow, 1e3);   // tau = 1 us
  ASSERT_EQ(node, node2);

  std::vector<circuit::Netlist*> nets = {&fast, &slow};
  circuit::EnsembleMna sys(nets);
  circuit::TransientOptions opt;
  opt.dt = 0.5e-9;
  opt.adaptive = true;
  circuit::EnsembleTransient sim(sys, opt);
  sim.set_initial_condition(0, node, 1.0);
  sim.set_initial_condition(1, node, 1.0);
  sim.run(100e-9);

  EXPECT_NEAR(sim.voltage(0, node), std::exp(-100.0 / 25.0), 5e-3);
  EXPECT_NEAR(sim.voltage(1, node), std::exp(-100.0 / 1000.0), 5e-3);
  // The fast lane needs more resolution over the same interval.
  EXPECT_GT(sim.accepted_steps(0), sim.accepted_steps(1));
}

TEST(Ensemble, GoldenFig2SamplesHoldUnderEnsemble) {
  // The PR 5 golden gates of the Fig. 2 plane, re-run through the batched
  // engine (same grid, batch 4): published samples and trends must hold
  // within the golden tolerances.
  analysis::PlaneOptions opt;
  opt.num_r_points = 13;
  opt.ops_per_point = 3;
  opt.r_lo = 10e3;
  opt.r_hi = 10e6;
  opt.threads = 1;
  opt.batch = 4;
  dram::DramColumn column;
  const Defect d{DefectKind::O3, Side::True};
  const dram::OperatingConditions nominal{2.4, 27.0, 60e-9, 0.5};
  dram::ColumnSimulator sim(column, nominal);
  const analysis::PlaneSet planes =
      analysis::generate_plane_set(column, d, sim, opt);

  constexpr double kVcTol = 0.03;
  constexpr double kVsaTol = 0.02;
  const size_t last = planes.w1.r_values.size() - 1;
  EXPECT_NEAR(planes.w1.curves[0].vc[0], 2.0601, kVcTol);
  EXPECT_NEAR(planes.w1.curves[0].vc[last], 0.0700, kVcTol);
  EXPECT_NEAR(planes.w0.curves[0].vc[0], 0.0110, kVcTol);
  EXPECT_NEAR(planes.r.curves[0].vc[0], 0.0205, kVcTol);
  EXPECT_NEAR(planes.r.curves[1].vc[0], 2.0771, kVcTol);
  EXPECT_NEAR(planes.w1.vsa[0], 1.1660, kVsaTol);
  EXPECT_NEAR(planes.w1.vsa[last], 0.3926, kVsaTol);
  for (size_t i = 1; i < planes.w1.vsa.size(); ++i)
    EXPECT_LE(planes.w1.vsa[i], planes.w1.vsa[i - 1] + 1e-9);
  for (size_t i = 1; i <= last; ++i)
    EXPECT_LT(planes.w1.curves[0].vc[i], planes.w1.curves[0].vc[i - 1]);
}

TEST(Ensemble, BorderWarmStartMatchesFullScan) {
  // The warm-started search must land on the same border as the full
  // coarse scan (both bisect to log_tol), in fewer probes.
  dram::DramColumn column;
  const Defect d{DefectKind::O3, Side::True};
  dram::ColumnSimulator sim(column, stress::nominal_condition());
  analysis::BorderResult nominal;
  {
    analysis::BorderOptions opt;
    nominal = analysis::analyze_defect(column, d, sim, opt);
  }
  ASSERT_TRUE(nominal.br.has_value());
  const defect::SweepRange range = defect::default_sweep_range(d.kind);

  analysis::BorderOptions cold_opt;
  const analysis::BorderResult cold = analysis::find_border_resistance(
      column, d, sim, nominal.condition, range, cold_opt);
  analysis::BorderOptions warm_opt;
  warm_opt.bracket_hint = *nominal.br * 1.3;  // deliberately offset hint
  const analysis::BorderResult warm = analysis::find_border_resistance(
      column, d, sim, nominal.condition, range, warm_opt);

  ASSERT_TRUE(cold.br.has_value());
  ASSERT_TRUE(warm.br.has_value());
  EXPECT_NEAR(*warm.br, *cold.br, 0.05 * *cold.br);
  EXPECT_EQ(warm.fails_everywhere, cold.fails_everywhere);

  // A hint outside the range falls back to the full scan unchanged.
  analysis::BorderOptions out_opt;
  out_opt.bracket_hint = range.hi * 10.0;
  const analysis::BorderResult fallback = analysis::find_border_resistance(
      column, d, sim, nominal.condition, range, out_opt);
  ASSERT_TRUE(fallback.br.has_value());
  EXPECT_DOUBLE_EQ(*fallback.br, *cold.br);
}

}  // namespace
}  // namespace dramstress
