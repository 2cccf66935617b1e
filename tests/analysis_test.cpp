#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "analysis/border.hpp"
#include "analysis/detection.hpp"
#include "analysis/fast_model.hpp"
#include "analysis/result_plane.hpp"
#include "analysis/vsa.hpp"
#include "dram/column_sim.hpp"
#include "numeric/rootfind.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

using namespace dramstress;
using namespace dramstress::analysis;
using defect::Defect;
using defect::DefectKind;
using dram::ColumnSimulator;
using dram::Operation;
using dram::OperatingConditions;
using dram::Side;

namespace {

OperatingConditions nominal() { return {2.4, 27.0, 60e-9, 0.5}; }

/// Shared column/simulator across tests in this file (rebuilt per fixture).
class AnalysisTest : public ::testing::Test {
protected:
  AnalysisTest() : sim(col, nominal()) {}
  dram::DramColumn col;
  ColumnSimulator sim;
};

}  // namespace

// -------------------------------------------------------------------- Vsa

TEST_F(AnalysisTest, VsaOfHealthyColumnIsNearMidpoint) {
  const VsaResult v = extract_vsa(sim, Side::True);
  EXPECT_EQ(v.kind, VsaResult::Kind::Normal);
  EXPECT_GT(v.threshold, 0.8);
  EXPECT_LT(v.threshold, 1.6);
}

TEST_F(AnalysisTest, VsaShrinksWithOpenResistance) {
  // Paper footnote 1: as Rop increases it gets easier to detect a 1 and
  // harder to detect a 0, i.e. Vsa moves toward GND.
  const Defect d{DefectKind::O3, Side::True};
  defect::Injection inj(col, d, 50e3);
  const double v50k = extract_vsa(sim, Side::True).threshold;
  inj.set_value(400e3);
  const double v400k = extract_vsa(sim, Side::True).threshold;
  inj.set_value(1e6);
  const double v1m = extract_vsa(sim, Side::True).threshold;
  EXPECT_GT(v50k, v400k);
  EXPECT_GT(v400k, v1m);
}

TEST_F(AnalysisTest, VsaRespectsTolerance) {
  const VsaResult a = extract_vsa(sim, Side::True, {.tolerance = 50e-3});
  const VsaResult b = extract_vsa(sim, Side::True, {.tolerance = 2e-3});
  EXPECT_NEAR(a.threshold, b.threshold, 60e-3);
}

TEST_F(AnalysisTest, VsaBisectsOnItsEndpointReads) {
  // Two endpoint reads decide the kind and are the bisection's endpoint
  // verdicts: 2 + ceil(log2(2.4 V / 3 mV)) = 12 reads at the nominal corner,
  // none of them repeated.
  const long t0 = dram::thread_transients();
  const VsaResult v = extract_vsa(sim, Side::True);
  EXPECT_EQ(dram::thread_transients() - t0, 12);
  // Same voltages probed as a plain bisection over the same predicate, so
  // the same threshold bits.
  const int at_zero = sim.read_of_initial(0.0, Side::True);
  const double plain = numeric::bisect_predicate(
      [&](double x) { return sim.read_of_initial(x, Side::True) == at_zero; },
      0.0, nominal().vdd, {.x_tol = VsaOptions{}.tolerance});
  EXPECT_EQ(v.threshold, plain);
}

// ---------------------------------------------------------------- planes

TEST_F(AnalysisTest, W0PlaneShapes) {
  const Defect d{DefectKind::O3, Side::True};
  PlaneOptions opt;
  opt.num_r_points = 6;
  opt.ops_per_point = 2;
  opt.r_lo = 10e3;
  opt.r_hi = 3e6;
  const ResultPlane p = generate_plane(col, d, sim, dram::OpKind::W0, opt);
  ASSERT_EQ(p.r_values.size(), 6u);
  ASSERT_EQ(p.curves.size(), 2u);
  EXPECT_EQ(p.curves[0].op_number, 1);
  EXPECT_EQ(p.curves[1].op_number, 2);
  // The first w0 leaves more residual voltage at higher R (write impeded).
  EXPECT_LT(p.curves[0].vc.front(), p.curves[0].vc.back());
  // The second w0 discharges at least as far as the first everywhere.
  for (size_t i = 0; i < p.r_values.size(); ++i)
    EXPECT_LE(p.curves[1].vc[i], p.curves[0].vc[i] + 1e-6) << "i=" << i;
  // Vmp sits at the midpoint level.
  EXPECT_NEAR(p.vmp, 1.2, 1e-9);
}

TEST_F(AnalysisTest, W1PlaneChargesUp) {
  const Defect d{DefectKind::O3, Side::True};
  PlaneOptions opt;
  opt.num_r_points = 5;
  opt.ops_per_point = 2;
  opt.r_lo = 10e3;
  opt.r_hi = 1e6;
  const ResultPlane p = generate_plane(col, d, sim, dram::OpKind::W1, opt);
  // Successive w1 ops only raise Vc; higher R charges less.
  for (size_t i = 0; i < p.r_values.size(); ++i)
    EXPECT_GE(p.curves[1].vc[i], p.curves[0].vc[i] - 1e-6);
  EXPECT_GT(p.curves[0].vc.front(), p.curves[0].vc.back());
}

TEST_F(AnalysisTest, RPlaneWalksTowardRails) {
  const Defect d{DefectKind::O3, Side::True};
  PlaneOptions opt;
  opt.num_r_points = 4;
  opt.ops_per_point = 2;
  opt.r_lo = 10e3;
  opt.r_hi = 300e3;
  const ResultPlane p = generate_plane(col, d, sim, dram::OpKind::R, opt);
  ASSERT_EQ(p.curves.size(), 4u);  // 2 ops x {below, above}
  // Started below Vsa: reads restore a low level; above: a high level.
  for (size_t i = 0; i < p.r_values.size(); ++i) {
    EXPECT_LT(p.curves[0].vc[i], p.vsa[i] + 0.1) << "below walk, i=" << i;
    EXPECT_GT(p.curves[1].vc[i], p.vsa[i] - 0.1) << "above walk, i=" << i;
  }
}

TEST_F(AnalysisTest, PlaneBorderMatchesOperationalBorder) {
  // The paper's graphical method (curve/Vsa intersection) and the
  // test-based bisection must agree within a factor ~2.
  const Defect d{DefectKind::O3, Side::True};
  PlaneOptions opt;
  opt.num_r_points = 8;
  opt.ops_per_point = 2;
  opt.r_lo = 30e3;
  opt.r_hi = 3e6;
  const ResultPlane p = generate_plane(col, d, sim, dram::OpKind::W0, opt);
  const auto plane_br = plane_border_resistance(p, 1);  // (2)w0 curve
  ASSERT_TRUE(plane_br.has_value());
  const BorderResult op_br = analyze_defect(col, d, sim);
  ASSERT_TRUE(op_br.br.has_value());
  EXPECT_GT(*plane_br, 0.3 * *op_br.br);
  EXPECT_LT(*plane_br, 3.0 * *op_br.br);
}

TEST_F(AnalysisTest, PlaneRejectsBadOptions) {
  const Defect d{DefectKind::O3, Side::True};
  PlaneOptions opt;
  opt.num_r_points = 1;
  EXPECT_THROW(generate_plane(col, d, sim, dram::OpKind::W0, opt), ModelError);
  EXPECT_THROW(generate_plane(col, d, sim, dram::OpKind::Del, PlaneOptions{}),
               ModelError);
}

// ------------------------------------------------------------- detection

TEST_F(AnalysisTest, ConditionRendering) {
  DetectionCondition c;
  c.ops = {Operation::w1(), Operation::w1(), Operation::w0(), Operation::r()};
  c.expected = 0;
  EXPECT_EQ(c.str(), "w1 w1 w0 r0");
  DetectionCondition d2;
  d2.ops = {Operation::w1(), Operation::del(100e-6), Operation::r()};
  d2.expected = 1;
  EXPECT_EQ(d2.str(), "w1 del(100 us) r1");
}

TEST_F(AnalysisTest, SaturationCountGrowsWithResistance) {
  const Defect d{DefectKind::O3, Side::True};
  defect::Injection inj(col, d, 10e3);
  const int k_small = saturation_count(sim, Side::True, 1);
  inj.set_value(500e3);
  const int k_large = saturation_count(sim, Side::True, 1);
  EXPECT_GE(k_large, k_small);
  EXPECT_GE(k_small, 1);
}

TEST_F(AnalysisTest, HealthyColumnHasNoDetectableFault) {
  const auto cond = derive_detection_condition(sim, Side::True);
  EXPECT_FALSE(cond.has_value());
}

TEST_F(AnalysisTest, OpenDefectIsDetected) {
  const Defect d{DefectKind::O3, Side::True};
  defect::Injection inj(col, d, 5e6);
  const auto cond = derive_detection_condition(sim, Side::True);
  ASSERT_TRUE(cond.has_value());
  EXPECT_TRUE(condition_fails(sim, Side::True, *cond));
}

TEST_F(AnalysisTest, StrongShortIsDetectedByTransitionCondition) {
  const Defect d{DefectKind::Sg, Side::True};
  defect::Injection inj(col, d, 10e3);
  const auto cond = derive_detection_condition(sim, Side::True);
  ASSERT_TRUE(cond.has_value());
  // The stored/written 1 is the attacked value: the final read expects 1.
  EXPECT_EQ(cond->expected, 1);
}

// ----------------------------------------------------------------- border

TEST_F(AnalysisTest, OpenBorderFaultsAboveAndShortBorderFaultsBelow) {
  const BorderResult open_br =
      analyze_defect(col, Defect{DefectKind::O3, Side::True}, sim);
  ASSERT_TRUE(open_br.br.has_value());
  EXPECT_TRUE(open_br.fault_at_high_r);
  EXPECT_GT(*open_br.br, 30e3);
  EXPECT_LT(*open_br.br, 3e6);

  const BorderResult short_br =
      analyze_defect(col, Defect{DefectKind::Sg, Side::True}, sim);
  ASSERT_TRUE(short_br.br.has_value());
  EXPECT_FALSE(short_br.fault_at_high_r);
  EXPECT_GT(*short_br.br, 50e3);
}

TEST_F(AnalysisTest, BorderSeparatesPassAndFailRegions) {
  const Defect d{DefectKind::O3, Side::True};
  const BorderResult br = analyze_defect(col, d, sim);
  ASSERT_TRUE(br.br.has_value());
  // The failing region of an open starts at BR (and may close again at
  // very large R where writes stop doing anything at all), so probe just
  // around the border.
  defect::Injection inj(col, d, *br.br / 1.5);
  EXPECT_FALSE(condition_fails(sim, Side::True, br.condition));
  inj.set_value(*br.br * 1.2);
  EXPECT_TRUE(condition_fails(sim, Side::True, br.condition));
}

TEST_F(AnalysisTest, FailingDecadesComputation) {
  BorderResult r;
  r.br = 1e5;
  r.fault_at_high_r = true;
  const defect::SweepRange range{1e3, 1e7};
  EXPECT_NEAR(r.failing_decades(range), 2.0, 1e-9);
  r.fault_at_high_r = false;
  EXPECT_NEAR(r.failing_decades(range), 2.0, 1e-9);
  r.br = std::nullopt;
  EXPECT_DOUBLE_EQ(r.failing_decades(range), 0.0);
  r.fails_everywhere = true;
  EXPECT_NEAR(r.failing_decades(range), 4.0, 1e-9);
}

// ----------------------------------------------------------- border state

namespace {

/// Write `r` into a border-payload-shaped object, re-parse the text and
/// read the state back.
BorderResult state_round_trip(const BorderResult& r) {
  util::json::Writer w;
  w.begin_object();
  w.key("transients").value(1L);
  w.key("border_state");
  append_border_state(w, r);
  w.end_object();
  const util::json::Value v = util::json::parse(w.str());
  return parse_border_state(*v.find("border_state"));
}

void expect_same_bits(const std::optional<double>& a,
                      const std::optional<double>& b, const char* what) {
  ASSERT_EQ(a.has_value(), b.has_value()) << what;
  if (a.has_value()) {
    EXPECT_EQ(std::bit_cast<uint64_t>(*a), std::bit_cast<uint64_t>(*b))
        << what;
  }
}

void expect_state_round_trips(const BorderResult& r) {
  const BorderResult back = state_round_trip(r);
  expect_same_bits(r.br, back.br, "br");
  expect_same_bits(r.margin_slope, back.margin_slope, "margin_slope");
  EXPECT_EQ(r.fault_at_high_r, back.fault_at_high_r);
  EXPECT_EQ(r.fails_everywhere, back.fails_everywhere);
  EXPECT_EQ(r.condition, back.condition) << r.condition.str();
  ASSERT_EQ(r.condition.ops.size(), back.condition.ops.size());
  for (size_t i = 0; i < r.condition.ops.size(); ++i)
    EXPECT_EQ(std::bit_cast<uint64_t>(r.condition.ops[i].del_seconds),
              std::bit_cast<uint64_t>(back.condition.ops[i].del_seconds))
        << r.condition.str() << " op " << i;
}

}  // namespace

TEST_F(AnalysisTest, BorderStateRoundTripsBitForBit) {
  // Every candidate of O3, Sg and B1 at the nominal corner (coupling
  // candidates included, so neighbour ops and both pause kinds appear),
  // derived at analyze_defect's reference resistance, with BRs and slopes
  // whose shortest %g rendering does not round-trip.
  DetectionOptions opt;
  opt.include_coupling = true;
  size_t checked = 0;
  bool saw_neighbor = false;
  bool saw_del = false;
  for (const DefectKind kind : {DefectKind::O3, DefectKind::Sg, DefectKind::B1}) {
    const Defect d{kind, Side::True};
    const defect::SweepRange range = defect::default_sweep_range(kind);
    const double ref = defect::is_series(kind) ? std::sqrt(range.lo * range.hi)
                                               : 10e3;
    std::vector<DetectionCondition> cands;
    {
      defect::Injection inj(col, d, ref);
      cands = candidate_conditions(sim, d.side, opt);
    }
    ASSERT_FALSE(cands.empty());
    for (const DetectionCondition& c : cands) {
      BorderResult r;
      r.br = ref / 3.0;
      r.fault_at_high_r = defect::is_series(kind);
      r.condition = c;
      r.margin_slope = -1.0 / 7.0;
      expect_state_round_trips(r);
      for (const dram::Operation& op : c.ops) {
        saw_neighbor = saw_neighbor || op.neighbor;
        saw_del = saw_del || op.kind == dram::OpKind::Del;
      }
      ++checked;
    }
  }
  EXPECT_TRUE(saw_neighbor);
  EXPECT_TRUE(saw_del);
  EXPECT_GE(checked, 3u * 10u);

  // No BR, a failing-everywhere verdict, and no surrogate slope.
  BorderResult none;
  none.fault_at_high_r = false;
  none.condition.ops = {Operation::w1(), Operation::del(100e-6), Operation::r()};
  none.condition.expected = 1;
  expect_state_round_trips(none);
  BorderResult everywhere = none;
  everywhere.br = 1e3;
  everywhere.fails_everywhere = true;
  everywhere.margin_slope = 0.1 + 0.2;
  expect_state_round_trips(everywhere);
}

TEST_F(AnalysisTest, BorderStateRejectsAMissingField) {
  const util::json::Value v = util::json::parse(R"({"br": null})");
  EXPECT_THROW(parse_border_state(v), ModelError);
}

// -------------------------------------------------------------- fast model

TEST_F(AnalysisTest, FastModelCalibratesToPlausibleConstants) {
  const Defect d{DefectKind::O3, Side::True};
  const FastCellModel fm = FastCellModel::calibrate(col, d, sim);
  EXPECT_GT(fm.params().r_series, 1e3);
  EXPECT_LT(fm.params().r_series, 200e3);
  EXPECT_GT(fm.params().t_write, 5e-9);
  EXPECT_LT(fm.params().t_write, 60e-9);
  EXPECT_GT(fm.params().v1_target, 1.2);
}

TEST_F(AnalysisTest, FastModelTracksSpiceWriteZero) {
  const Defect d{DefectKind::O3, Side::True};
  FastCellModel fm = FastCellModel::calibrate(col, d, sim);
  defect::Injection inj(col, d, 200e3);
  const dram::RunResult spice = sim.run({Operation::w0()}, 2.4, Side::True);
  fm.set_defect_resistance(200e3);
  fm.set_vc(2.4);
  fm.write(0);
  EXPECT_NEAR(fm.vc(), spice.vc_after(0), 0.12);
}

TEST_F(AnalysisTest, FastModelShuntDecaysDuringIdle) {
  const Defect d{DefectKind::Sg, Side::True};
  FastCellModel fm = FastCellModel::calibrate(col, d, sim);
  fm.set_defect_resistance(1e6);
  fm.set_vc(2.4);
  fm.idle(1e-3);  // >> tau = 150 us
  EXPECT_LT(fm.vc(), 0.1);
  EXPECT_EQ(fm.read(), 0);
}

TEST_F(AnalysisTest, FastModelReadRestoresValue) {
  const Defect d{DefectKind::O3, Side::True};
  FastCellModel fm = FastCellModel::calibrate(col, d, sim);
  fm.set_defect_resistance(10e3);
  fm.set_vc(2.2);
  EXPECT_EQ(fm.read(), 1);
  EXPECT_GT(fm.vc(), 1.4);  // restored high
  fm.set_vc(0.1);
  EXPECT_EQ(fm.read(), 0);
  EXPECT_LT(fm.vc(), 0.2);
}

TEST_F(AnalysisTest, FastModelCompSideInvertsLogical)
{
  const Defect d{DefectKind::O3, Side::Comp};
  FastCellModel fm = FastCellModel::calibrate(col, d, sim);
  fm.set_defect_resistance(10e3);
  fm.set_vc(0.0);
  fm.write(1);          // logical 1 -> physical low stays low
  EXPECT_LT(fm.vc(), 0.4);
  EXPECT_EQ(fm.read(), 1);
}

TEST_F(AnalysisTest, FindBorderReportsNoFaultForBenignCondition) {
  // A condition that the healthy column passes and that the defect never
  // breaks anywhere in the range: find_border_resistance returns no BR.
  const Defect d{DefectKind::O3, Side::True};
  DetectionCondition healthy_ok;
  healthy_ok.ops = {Operation::w1(), Operation::w1(), Operation::w1(),
                    Operation::w1(), Operation::w1(), Operation::r()};
  healthy_ok.expected = 1;
  healthy_ok.init_logical = 0;
  // Restrict to a benign low-resistance range.
  const defect::SweepRange benign{1e3, 30e3};
  const BorderResult r =
      find_border_resistance(col, d, sim, healthy_ok, benign);
  EXPECT_FALSE(r.br.has_value());
  EXPECT_FALSE(r.fails_everywhere);
}

TEST_F(AnalysisTest, FindBorderFlagsFailsEverywhere) {
  // Over a range that lies entirely beyond the border, the whole scan
  // fails and the result is flagged.
  const Defect d{DefectKind::Sg, Side::True};
  DetectionCondition ret;
  ret.ops = {Operation::w1(), Operation::del(100e-6), Operation::r()};
  ret.expected = 1;
  ret.init_logical = 0;
  const defect::SweepRange strong{1e3, 100e3};  // all far below the border
  const BorderResult r = find_border_resistance(col, d, sim, ret, strong);
  ASSERT_TRUE(r.br.has_value());
  EXPECT_TRUE(r.fails_everywhere);
  EXPECT_FALSE(r.fault_at_high_r);
}

TEST_F(AnalysisTest, ConditionValidityOnHealthyColumn) {
  DetectionCondition sane;
  sane.ops = {Operation::w1(), Operation::r()};
  sane.expected = 1;
  sane.init_logical = 0;
  EXPECT_TRUE(condition_valid_on_healthy(sim, Side::True, sane));
  // A nonsense expectation fails healthy devices: invalid as a test.
  DetectionCondition nonsense = sane;
  nonsense.expected = 0;
  EXPECT_FALSE(condition_valid_on_healthy(sim, Side::True, nonsense));
}
