// Result planes (paper Section 3, Figs. 2 and 6).
//
// A result plane describes, per defect resistance R, the stored cell
// voltage after each of a sequence of identical operations:
//   * the w0 plane starts from a cell initialized to vdd and applies
//     successive w0 operations;
//   * the w1 plane starts from ground and applies successive w1 operations;
//   * the r plane establishes Vsa(R) first, then applies successive reads
//     starting slightly below and slightly above it.
// The plane also carries the Vsa(R) curve and the mid-point voltage Vmp.
#pragma once

#include <vector>

#include "analysis/vsa.hpp"
#include "analysis/vsa_cache.hpp"
#include "defect/defect.hpp"
#include "dram/column_sim.hpp"
#include "numeric/interp.hpp"

namespace dramstress::util::json {
class Writer;
}

namespace dramstress::analysis {

struct PlaneOptions {
  int num_r_points = 15;     // log-spaced resistance grid size
  int ops_per_point = 4;     // successive operations recorded per R
  double r_lo = 1e3;         // grid bounds (Ohm)
  double r_hi = 10e6;
  double read_probe_offset = 0.2;  // V around Vsa for the r plane
  VsaOptions vsa;
  /// Worker threads for the R sweep; 0 = util::default_threads().  Results
  /// are bit-identical for every thread count.
  int threads = 0;
  /// Ensemble lanes simulated together per batch -- performance only:
  /// planes are bit-identical for every value.  0 (the default) sizes the
  /// lanes so each worker gets one batch, at most 12 lanes each; > 0 pins
  /// the lane count (tests use it to exercise batch compositions).
  int batch = 0;
  /// Optional Vsa(R) memoization shared across planes of the same defect
  /// and corner (generate_plane_set supplies one automatically).
  VsaCache* vsa_cache = nullptr;
};

/// One curve of the plane: Vc after the (op_number)-th operation vs R.
struct PlaneCurve {
  int op_number = 1;        // 1-based, as in the paper's "(2) w0" labels
  bool from_above = false;  // r plane only: started above (true) / below Vsa
  std::vector<double> vc;   // one entry per R grid point
};

struct ResultPlane {
  dram::OpKind op = dram::OpKind::W0;
  std::vector<double> r_values;
  std::vector<PlaneCurve> curves;
  std::vector<double> vsa;       // clamped threshold per R
  std::vector<VsaResult> vsa_raw;
  double vmp = 0.0;              // mid-point voltage (stored 0/1 boundary)

  /// Piecewise-linear view of a curve / the Vsa curve over R (x = R).
  numeric::PiecewiseLinear curve_interp(size_t curve_index) const;
  numeric::PiecewiseLinear vsa_interp() const;
};

/// Generate the plane for `op` (W0, W1 or R) for the defect currently
/// injected via `defect` (the injection value is swept internally).
ResultPlane generate_plane(dram::DramColumn& column, const defect::Defect& d,
                           const dram::ColumnSimulator& sim, dram::OpKind op,
                           const PlaneOptions& opt = {});

/// Convenience: all three planes of Fig. 2 / Fig. 6.
struct PlaneSet {
  ResultPlane w0;
  ResultPlane w1;
  ResultPlane r;
};
PlaneSet generate_plane_set(dram::DramColumn& column, const defect::Defect& d,
                            const dram::ColumnSimulator& sim,
                            const PlaneOptions& opt = {});

/// The paper's graphical border-resistance estimate: smallest R at which
/// the selected write curve crosses the Vsa curve.  Returns nullopt if the
/// curves do not cross inside the grid.
std::optional<double> plane_border_resistance(const ResultPlane& write_plane,
                                              size_t curve_index);

/// Emit a plane / plane set as a JSON object -- the campaign cache payload.
void append_json(util::json::Writer& w, const ResultPlane& p);
void append_json(util::json::Writer& w, const PlaneSet& s);

}  // namespace dramstress::analysis
