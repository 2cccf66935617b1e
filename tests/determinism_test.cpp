// Determinism contract of the parallel sweep engine: every sweep writes
// into pre-sized slots from per-worker column clones, so results are
// bit-identical for every thread count, and the Vsa memoization returns
// exactly what a fresh extraction would.  This test also runs under the
// DRAMSTRESS_SANITIZE=thread build, where it doubles as the structural
// data-race check for the pool.
#include <optional>

#include <gtest/gtest.h>

#include "analysis/result_plane.hpp"
#include "analysis/vsa_cache.hpp"
#include "stress/shmoo.hpp"
#include "stress/stress.hpp"
#include "stress/variation.hpp"

using namespace dramstress;
using defect::Defect;
using defect::DefectKind;
using dram::Side;

namespace {

analysis::PlaneOptions small_plane_options() {
  analysis::PlaneOptions opt;
  opt.num_r_points = 4;
  opt.ops_per_point = 2;
  opt.r_lo = 30e3;
  opt.r_hi = 1e6;
  return opt;
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

}  // namespace

TEST(Determinism, PlaneSetIdenticalAcrossThreadCounts) {
  const Defect d{DefectKind::O3, Side::True};
  analysis::PlaneOptions opt = small_plane_options();

  dram::DramColumn col1;
  dram::ColumnSimulator sim1(col1, stress::nominal_condition());
  opt.threads = 1;
  const analysis::PlaneSet one = analysis::generate_plane_set(col1, d, sim1, opt);

  dram::DramColumn col4;
  dram::ColumnSimulator sim4(col4, stress::nominal_condition());
  opt.threads = 4;
  const analysis::PlaneSet four = analysis::generate_plane_set(col4, d, sim4, opt);

  expect_identical(one.w0, four.w0);
  expect_identical(one.w1, four.w1);
  expect_identical(one.r, four.r);
}

TEST(Determinism, VsaCacheHitMatchesUncachedExtraction) {
  const Defect d{DefectKind::O3, Side::True};
  dram::DramColumn col;
  defect::Injection inj(col, d, 200e3);
  dram::ColumnSimulator sim(col, stress::nominal_condition());

  const analysis::VsaResult uncached = analysis::extract_vsa(sim, d.side);
  analysis::VsaCache cache;
  EXPECT_FALSE(cache.lookup(sim, d, 200e3).has_value());
  cache.insert(sim, d, 200e3, {}, analysis::extract_vsa(sim, d.side));
  const std::optional<analysis::VsaResult> hit = cache.lookup(sim, d, 200e3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(hit->kind, uncached.kind);
  EXPECT_DOUBLE_EQ(hit->threshold, uncached.threshold);

  // A different resistance or tolerance is a different key.
  analysis::VsaOptions coarse;
  coarse.tolerance *= 2.0;
  EXPECT_FALSE(cache.lookup(sim, d, 200e3, coarse).has_value());
  inj.set_value(400e3);
  EXPECT_FALSE(cache.lookup(sim, d, 400e3).has_value());
  cache.insert(sim, d, 400e3, {}, analysis::extract_vsa(sim, d.side));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Determinism, PlaneSetWithCacheMatchesCachelessPlanes) {
  // generate_plane_set memoizes Vsa across its three planes; the planes it
  // returns must match three independent uncached generate_plane calls.
  const Defect d{DefectKind::O3, Side::True};
  const analysis::PlaneOptions opt = small_plane_options();

  dram::DramColumn col_set;
  dram::ColumnSimulator sim_set(col_set, stress::nominal_condition());
  const analysis::PlaneSet set =
      analysis::generate_plane_set(col_set, d, sim_set, opt);

  dram::DramColumn col;
  dram::ColumnSimulator sim(col, stress::nominal_condition());
  expect_identical(set.w0,
                   analysis::generate_plane(col, d, sim, dram::OpKind::W0, opt));
  expect_identical(set.w1,
                   analysis::generate_plane(col, d, sim, dram::OpKind::W1, opt));
  expect_identical(set.r,
                   analysis::generate_plane(col, d, sim, dram::OpKind::R, opt));
}

TEST(Determinism, ShmooIdenticalAcrossThreadCounts) {
  const Defect d{DefectKind::O3, Side::True};
  analysis::DetectionCondition cond;
  cond.ops = {dram::Operation::w1(), dram::Operation::w1(),
              dram::Operation::w0(), dram::Operation::r()};
  cond.expected = 0;
  cond.init_logical = 0;

  stress::ShmooOptions opt;
  opt.x_axis = stress::StressAxis::CycleTime;
  opt.y_axis = stress::StressAxis::SupplyVoltage;
  opt.x_values = {55e-9, 65e-9};
  opt.y_values = {2.1, 2.7};
  opt.settings.dt = 0.2e-9;

  dram::DramColumn col1;
  opt.threads = 1;
  const stress::ShmooPlot one = stress::shmoo_plot(
      col1, d, 300e3, cond, stress::nominal_condition(), opt);

  dram::DramColumn col4;
  opt.threads = 4;
  const stress::ShmooPlot four = stress::shmoo_plot(
      col4, d, 300e3, cond, stress::nominal_condition(), opt);

  EXPECT_EQ(one.pass, four.pass);
  EXPECT_EQ(one.simulations, four.simulations);
  EXPECT_EQ(one.render(), four.render());  // CSV/ASCII-level identity
}
