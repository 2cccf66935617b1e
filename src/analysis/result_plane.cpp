#include "analysis/result_plane.hpp"

#include <algorithm>
#include <memory>

#include "defect/sweep_context.hpp"
#include "dram/ensemble_column.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace dramstress::analysis {

using dram::Operation;
using dram::OpKind;
using dram::OpSequence;

numeric::PiecewiseLinear ResultPlane::curve_interp(size_t curve_index) const {
  require(curve_index < curves.size(), "ResultPlane: curve index out of range");
  return numeric::PiecewiseLinear(r_values, curves[curve_index].vc);
}

numeric::PiecewiseLinear ResultPlane::vsa_interp() const {
  return numeric::PiecewiseLinear(r_values, vsa);
}

namespace {

Operation op_of(OpKind kind) {
  switch (kind) {
    case OpKind::W0: return Operation::w0();
    case OpKind::W1: return Operation::w1();
    case OpKind::R: return Operation::r();
    case OpKind::Del: break;
  }
  throw ModelError("result plane: op must be w0, w1 or r");
}

/// Widest batch the automatic lane count uses: past it the lane-major
/// working set outgrows the cache (bench/engine_perf measured 12 lanes as
/// the best batch on the Fig. 2 grid).
constexpr size_t kMaxLanes = 12;

/// Lanes per batch: one batch per worker of the team, split further only
/// when that would exceed kMaxLanes.  opt.batch > 0 pins the count.
size_t lanes_per_batch(size_t n_points, const PlaneOptions& opt) {
  if (opt.batch > 0) return static_cast<size_t>(opt.batch);
  const size_t team = std::min(
      static_cast<size_t>(util::resolve_threads(opt.threads)), n_points);
  const size_t batches =
      std::max(team, (n_points + kMaxLanes - 1) / kMaxLanes);
  return (n_points + batches - 1) / batches;
}

/// Worker state of the batched (ensemble) sweep: `batch` column clones
/// bound as ensemble lanes, plus the Vsa gallop seed this worker carries
/// from batch to batch (R-sweep continuation: adjacent grid points have
/// nearby thresholds, so the seed cuts the probe count; it cannot change
/// the extracted values -- see analysis/vsa.hpp).
struct BatchState {
  std::vector<defect::SweepContext> ctxs;
  std::unique_ptr<dram::EnsembleColumnSim> ens;
  VsaSeed seed;
};

/// The R-grid sweep behind generate_plane and generate_plane_set: one
/// plane per entry of `ops`, filled by one worker team.  Every plane
/// carries the same Vsa(R) curve, so each lane batch extracts it once and
/// then runs every plane's writes or reads on the same lanes.
std::vector<ResultPlane> sweep_planes(dram::DramColumn& column,
                                      const defect::Defect& d,
                                      const dram::ColumnSimulator& sim,
                                      const std::vector<OpKind>& ops,
                                      const PlaneOptions& opt) {
  require(opt.num_r_points >= 2, "result plane: need >= 2 R points");
  require(opt.ops_per_point >= 1, "result plane: need >= 1 op");
  const double vdd = sim.conditions().vdd;
  const std::vector<double> r_values =
      numeric::logspace(opt.r_lo, opt.r_hi, opt.num_r_points);
  const size_t n_points = r_values.size();
  const int n_ops = opt.ops_per_point;

  std::vector<ResultPlane> planes(ops.size());
  const std::vector<double> empty_curve(n_points, 0.0);
  for (size_t p = 0; p < ops.size(); ++p) {
    ResultPlane& plane = planes[p];
    plane.op = ops[p];
    plane.vmp = 0.5 * vdd;
    plane.r_values = r_values;
    for (int k = 0; k < n_ops; ++k) {
      plane.curves.push_back({k + 1, false, empty_curve});
      if (plane.op == OpKind::R)
        plane.curves.push_back({k + 1, true, empty_curve});
    }
    plane.vsa.assign(n_points, 0.0);
    plane.vsa_raw.assign(n_points, VsaResult{});
  }

  // Injection::set_value and waveform installation mutate column state, so
  // each worker sweeps its own clones, bound as the lanes of its batches;
  // every R point writes only its own pre-sized slots, keeping results
  // bit-identical across thread and lane counts.
  const size_t batch = lanes_per_batch(n_points, opt);
  const size_t n_batches = (n_points + batch - 1) / batch;
  util::parallel_for_state(
      n_batches,
      [&] {
        BatchState bs;
        bs.ctxs.reserve(batch);
        for (size_t k = 0; k < batch; ++k)
          bs.ctxs.emplace_back(column.tech(), d, r_values.front(),
                               sim.conditions(), sim.settings());
        std::vector<const dram::ColumnSimulator*> sims;
        sims.reserve(batch);
        for (auto& c : bs.ctxs) sims.push_back(&c.sim());
        bs.ens = std::make_unique<dram::EnsembleColumnSim>(std::move(sims));
        return bs;
      },
      [&](BatchState& bs, size_t bi) {
        OBS_SPAN("plane.batch");
        const size_t begin = bi * batch;
        const size_t end = std::min(begin + batch, n_points);
        const size_t lanes_used = end - begin;
        obs::count("plane.points",
                   static_cast<long>(lanes_used * planes.size()));
        std::vector<char> act(batch, 0);
        for (size_t k = 0; k < lanes_used; ++k) {
          act[k] = 1;
          bs.ctxs[k].injection().set_value(r_values[begin + k]);
        }
        const std::vector<VsaResult> vsa =
            extract_vsa_batch(*bs.ens, d.side, opt.vsa, act, &bs.seed);

        // Probe runs never record a trace and stop after the last sample;
        // the per-op cell voltages are all the planes consume.
        for (ResultPlane& plane : planes) {
          for (size_t k = 0; k < lanes_used; ++k) {
            plane.vsa_raw[begin + k] = vsa[k];
            plane.vsa[begin + k] = vsa[k].threshold;
          }
          if (plane.op == OpKind::R) {
            const OpSequence reads(static_cast<size_t>(n_ops), Operation::r());
            std::vector<double> below(batch, 0.0);
            std::vector<double> above(batch, 0.0);
            for (size_t k = 0; k < lanes_used; ++k) {
              below[k] =
                  std::max(0.0, vsa[k].threshold - opt.read_probe_offset);
              above[k] =
                  std::min(vdd, vsa[k].threshold + opt.read_probe_offset);
            }
            const auto rb = bs.ens->run_batch(reads, d.side, below, act,
                                              /*early_stop=*/true);
            const auto ra = bs.ens->run_batch(reads, d.side, above, act,
                                              /*early_stop=*/true);
            for (size_t k = 0; k < lanes_used; ++k) {
              for (int j = 0; j < n_ops; ++j) {
                plane.curves[static_cast<size_t>(2 * j)].vc[begin + k] =
                    rb[k].ops[static_cast<size_t>(j)].vc;
                plane.curves[static_cast<size_t>(2 * j + 1)].vc[begin + k] =
                    ra[k].ops[static_cast<size_t>(j)].vc;
              }
            }
          } else {
            const int target = plane.op == OpKind::W0 ? 0 : 1;
            const double init = dram::physical_level(d.side, 1 - target, vdd);
            const OpSequence writes(static_cast<size_t>(n_ops),
                                    op_of(plane.op));
            const std::vector<double> inits(batch, init);
            const auto rr = bs.ens->run_batch(writes, d.side, inits, act,
                                              /*early_stop=*/true);
            for (size_t k = 0; k < lanes_used; ++k)
              for (int j = 0; j < n_ops; ++j)
                plane.curves[static_cast<size_t>(j)].vc[begin + k] =
                    rr[k].ops[static_cast<size_t>(j)].vc;
          }
        }
      },
      {.threads = opt.threads});
  return planes;
}

}  // namespace

ResultPlane generate_plane(dram::DramColumn& column, const defect::Defect& d,
                           const dram::ColumnSimulator& sim, OpKind op,
                           const PlaneOptions& opt) {
  OBS_SPAN("plane.generate");
  return std::move(sweep_planes(column, d, sim, {op}, opt).front());
}

PlaneSet generate_plane_set(dram::DramColumn& column, const defect::Defect& d,
                            const dram::ColumnSimulator& sim,
                            const PlaneOptions& opt) {
  OBS_SPAN("plane.generate_set");
  std::vector<ResultPlane> planes = sweep_planes(
      column, d, sim, {OpKind::W0, OpKind::W1, OpKind::R}, opt);
  return {std::move(planes[0]), std::move(planes[1]), std::move(planes[2])};
}

std::optional<double> plane_border_resistance(const ResultPlane& write_plane,
                                              size_t curve_index) {
  const auto curve = write_plane.curve_interp(curve_index);
  const auto vsa = write_plane.vsa_interp();
  return numeric::first_crossing(curve, vsa, write_plane.r_values.front(),
                                 write_plane.r_values.back(), 1024);
}

namespace {

void append_doubles(util::json::Writer& w, const std::vector<double>& xs) {
  w.begin_array();
  for (const double x : xs) w.value(x);
  w.end_array();
}

}  // namespace

void append_json(util::json::Writer& w, const ResultPlane& p) {
  w.begin_object();
  w.key("op").value(dram::to_string(p.op));
  w.key("vmp").value(p.vmp);
  w.key("r_values");
  append_doubles(w, p.r_values);
  w.key("vsa");
  append_doubles(w, p.vsa);
  w.key("curves");
  w.begin_array();
  for (const PlaneCurve& c : p.curves) {
    w.begin_object();
    w.key("op_number").value(c.op_number);
    w.key("from_above").value(c.from_above);
    w.key("vc");
    append_doubles(w, c.vc);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void append_json(util::json::Writer& w, const PlaneSet& s) {
  w.begin_object();
  w.key("w0");
  append_json(w, s.w0);
  w.key("w1");
  append_json(w, s.w1);
  w.key("r");
  append_json(w, s.r);
  w.end_object();
}

}  // namespace dramstress::analysis
