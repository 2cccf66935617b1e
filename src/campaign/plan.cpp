#include "campaign/plan.hpp"

#include <algorithm>

#include "analysis/border.hpp"
#include "obs/version.hpp"
#include "stress/optimizer.hpp"
#include "util/strings.hpp"

namespace dramstress::campaign {

namespace util = dramstress::util;

std::string netlist_signature(const dram::DramColumn& column) {
  const circuit::Netlist& net = column.netlist();
  std::string sig = util::format("nodes=%d;", net.num_nodes());
  for (const auto& dev : net.devices()) {
    sig += dev->name();
    sig += ':';
    sig += circuit::to_string(dev->kind());
    for (const circuit::NodeId n : dev->terminals()) {
      sig += ',';
      sig += n == circuit::kGround ? "0" : net.node_name(n);
    }
    sig += ';';
  }
  return sig;
}

namespace {

void feed_settings(KeyHasher& h, const dram::SimSettings& s) {
  // The literals stand where the retired record stride (4), stepping mode
  // (adaptive) and solver backend (auto) were fed: the one engine runs
  // exactly that configuration, so every existing key stays valid.
  h.feed(s.dt)
      .feed(static_cast<long>(s.integrator))
      .feed(4L)
      .feed(static_cast<long>(s.del_steps))
      .feed(true)
      .feed(s.lte_tol)
      .feed(s.dt_min)
      .feed(s.dt_max)
      .feed(s.reuse_jacobian)
      .feed(0L);
  h.feed(s.newton.v_tol)
      .feed(s.newton.res_tol)
      .feed(static_cast<long>(s.newton.max_iter))
      .feed(s.newton.max_step)
      .feed(s.newton.gmin)
      .feed(s.newton.reuse_jacobian);
  h.feed(s.timing.ramp)
      .feed(s.timing.sense_delay)
      .feed(s.timing.write_delay)
      .feed(s.timing.csl_delay)
      .feed(static_cast<long>(s.timing.idle_cycles));
}

CacheKey unit_key(const CampaignSpec& spec, const std::string& netsig,
                  UnitKind kind, const defect::Defect& d,
                  const stress::StressCondition& sc) {
  KeyHasher h;
  h.feed(std::string("engine=") + obs::git_describe());
  h.feed(static_cast<long>(kCacheVersion));
  h.feed(netsig);
  h.feed(std::string(to_string(kind)));
  h.feed(std::string(defect::to_string(d.kind)));
  h.feed(d.side == dram::Side::Comp);
  h.feed(sc.vdd).feed(sc.temp_c).feed(sc.tcyc).feed(sc.duty);
  feed_settings(h, spec.settings);
  const defect::SweepRange range = defect::default_sweep_range(d.kind);
  h.feed(range.lo).feed(range.hi);
  if (kind == UnitKind::Planes) {
    h.feed(static_cast<long>(spec.plane_r_points))
        .feed(static_cast<long>(spec.plane_ops_per_point));
  } else {
    // Border extraction options: campaigns run BorderOptions{}, so every
    // default that shapes the search is a result input.
    const analysis::BorderOptions b;
    h.feed(static_cast<long>(b.scan_points))
        .feed(b.log_tol)
        .feed(static_cast<long>(b.refine_iterations))
        .feed(static_cast<long>(b.detection.max_charge_ops))
        .feed(b.detection.saturation_epsilon)
        .feed(b.detection.include_coupling);
    for (const double t : b.detection.retention_times) h.feed(t);
    h.feed(static_cast<long>(b.surrogate.max_probes))
        .feed(b.surrogate.prune_margin_decades)
        .feed(static_cast<long>(b.surrogate.vsa_knots))
        .feed(b.surrogate.vsa_tol);
  }
  if (kind == UnitKind::Optimize) {
    const stress::OptimizerOptions o;
    h.feed(o.write_tol).feed(o.read_tol);
    for (const stress::StressAxis axis : o.axes)
      h.feed(static_cast<long>(axis));
  }
  return h.key();
}

}  // namespace

CampaignPlan expand(const CampaignSpec& spec,
                    const dram::DramColumn& column) {
  CampaignPlan plan;
  plan.spec = spec;
  const std::string netsig = netlist_signature(column);

  const auto requested = [&](UnitKind k) {
    return std::find(spec.analyses.begin(), spec.analyses.end(), k) !=
           spec.analyses.end();
  };
  const bool want_border =
      requested(UnitKind::Border) || requested(UnitKind::Optimize);
  const bool want_planes = requested(UnitKind::Planes);
  const bool want_optimize = requested(UnitKind::Optimize);

  for (size_t di = 0; di < spec.defects.size(); ++di) {
    const defect::Defect& d = spec.defects[di];
    for (size_t pi = 0; pi < spec.points.size(); ++pi) {
      const StressPoint& p = spec.points[pi];
      size_t border_index = 0;
      const auto add = [&](UnitKind kind,
                           std::vector<size_t> deps) -> size_t {
        WorkUnit u;
        u.index = plan.units.size();
        u.kind = kind;
        u.defect_index = di;
        u.point_index = pi;
        u.deps = std::move(deps);
        u.id = util::format("%s/%s@%s", to_string(kind),
                            defect::to_string(d.kind), p.name.c_str());
        if (d.side == dram::Side::Comp)
          u.id = util::format("%s/%s.comp@%s", to_string(kind),
                              defect::to_string(d.kind), p.name.c_str());
        u.key = unit_key(spec, netsig, kind, d, p.condition);
        plan.units.push_back(std::move(u));
        return plan.units.back().index;
      };
      if (want_border) border_index = add(UnitKind::Border, {});
      if (want_planes) add(UnitKind::Planes, {});
      if (want_optimize) add(UnitKind::Optimize, {border_index});
    }
  }
  return plan;
}

}  // namespace dramstress::campaign
