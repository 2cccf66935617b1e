// Determinism contract of the parallel sweep engine: every sweep writes
// into pre-sized slots from per-worker column clones, so results are
// bit-identical for every thread count, and a plane set's shared Vsa(R)
// pass equals one plane at a time.  This test also runs under the
// DRAMSTRESS_SANITIZE=thread build, where it doubles as the structural
// data-race check for the pool.
#include <gtest/gtest.h>

#include "analysis/result_plane.hpp"
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

TEST(Determinism, PlaneSetExtractsVsaOncePerPoint) {
  // A plane set pays for Vsa(R) once: on one thread its transients are the
  // W0 plane's (Vsa + one write run per point) plus one W1 write run and
  // two R read runs per point.
  const Defect d{DefectKind::O3, Side::True};
  analysis::PlaneOptions opt = small_plane_options();
  opt.num_r_points = 5;
  opt.threads = 1;
  dram::DramColumn col;
  dram::ColumnSimulator sim(col, stress::nominal_condition());

  long t0 = dram::thread_transients();
  analysis::generate_plane(col, d, sim, dram::OpKind::W0, opt);
  const long w0_plane = dram::thread_transients() - t0;
  t0 = dram::thread_transients();
  analysis::generate_plane_set(col, d, sim, opt);
  const long plane_set = dram::thread_transients() - t0;
  EXPECT_EQ(plane_set, w0_plane + 3 * opt.num_r_points);
}

TEST(Determinism, PlaneSetWithCacheMatchesCachelessPlanes) {
  // generate_plane_set extracts Vsa once for its three planes in one sweep;
  // the planes it returns must match three independent generate_plane
  // calls.
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
