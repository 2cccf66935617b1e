#include "dram/ensemble_column.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "circuit/ensemble_transient.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace dramstress::dram {

using circuit::EnsembleTransient;
using circuit::TransientOptions;

namespace {

thread_local long t_transients = 0;

void count_transients(long n) {
  t_transients += n;
  obs::count("sim.transients", n);
}

std::vector<circuit::Netlist*> lane_netlists(
    const std::vector<const ColumnSimulator*>& sims) {
  require(!sims.empty(), "EnsembleColumnSim: at least one lane required");
  std::vector<circuit::Netlist*> nets;
  nets.reserve(sims.size());
  for (const ColumnSimulator* s : sims) nets.push_back(&s->column().netlist());
  return nets;
}

/// Histogram name for the wall time of one scheduled interval.  Literals:
/// obs metric names must outlive the process.
const char* op_wall_metric(const CompiledSchedule& sched, int op_index) {
  if (op_index < 0) return "op.wall.precharge";
  switch (sched.ops[static_cast<size_t>(op_index)].kind) {
    case OpKind::W0: return "op.wall.w0";
    case OpKind::W1: return "op.wall.w1";
    case OpKind::R: return "op.wall.r";
    case OpKind::Del: return "op.wall.del";
  }
  return "op.wall.precharge";
}

}  // namespace

long thread_transients() { return t_transients; }

std::vector<std::pair<circuit::NodeId, double>> floating_cell_ics(
    const DramColumn& col, const OperatingConditions& cond, Side side,
    double vc_init) {
  const circuit::Netlist& net = col.netlist();
  const double vbl = col.tech().vbl_frac * cond.vdd;
  const double vref = reference_level(col.tech(), cond.vdd, cond.kelvin());
  const auto& c = col.controls();
  const std::pair<const circuit::VoltageSource*, const char*> sources[] = {
      {c.vdd, "vddn"}, {c.vbl, "vbln"},   {c.vref, "vrefn"}, {c.eq, "eq"},
      {c.san, "sann"}, {c.sap, "sapn"},   {c.wsl, "wsl"},    {c.csl, "csl"},
      {c.dt, "dt"},    {c.dc, "dc"},      {c.wl_true, "wl0"},
      {c.wl_comp, "wl0c"}, {c.wl_idle_t, "t1_wl"}, {c.wl_idle_c, "c1_wl"},
      {c.rwl_t, "rt_wl"}, {c.rwl_c, "rc_wl"},
  };
  std::vector<std::pair<circuit::NodeId, double>> ics;
  // Every source-driven node starts at its waveform's t=0 value, so the
  // first step does not see artificial rail steps.
  for (const auto& [src, node] : sources)
    ics.emplace_back(net.find_node(node), src->value(0.0));
  ics.emplace_back(col.bt(), vbl);
  ics.emplace_back(col.bc(), vbl);
  ics.emplace_back(net.find_node("rt_cn"), vref);
  ics.emplace_back(net.find_node("rc_cn"), vref);
  ics.emplace_back(col.idle_cell_node(Side::True), 0.0);
  ics.emplace_back(col.idle_cell_node(Side::Comp), 0.0);
  // The addressed cell floats at vc_init.  Internal segment nodes follow
  // the cell only while their path to the storage node is intact; a node
  // isolated from the cell by an injected open equilibrates to the bitline
  // level across cycles (it connects to the bitline whenever the wordline
  // opens), so it starts there.
  const double kOpenThreshold = 10e3;
  for (Side s : {Side::True, Side::Comp}) {
    const double v = (s == side) ? vc_init : 0.0;
    const bool o3_open = col.segment(s, "o3")->resistance() > kOpenThreshold;
    const bool o2_open = col.segment(s, "o2")->resistance() > kOpenThreshold;
    ics.emplace_back(col.cell_node(s), v);
    ics.emplace_back(col.seg_node_nm(s), o3_open ? vbl : v);
    ics.emplace_back(col.seg_node_ns(s), (o3_open || o2_open) ? vbl : v);
    ics.emplace_back(col.seg_node_nd(s), vbl);
  }
  ics.emplace_back(net.find_node("doutb"), 0.0);
  ics.emplace_back(col.dout(), 0.0);
  return ics;
}

void walk_schedule(
    const CompiledSchedule& sched, double dt, int del_steps, bool early_stop,
    const std::function<void(double)>& set_dt,
    const std::function<void(double)>& advance,
    const std::function<void(const CompiledSchedule::Sample&)>& sample) {
  size_t next_sample = 0;
  const double eps = 1e-15;
  double now = 0.0;
  for (const auto& iv : sched.intervals) {
    const auto iv_start = std::chrono::steady_clock::now();
    set_dt(iv.is_del ? std::max(dt, (iv.t1 - iv.t0) / del_steps) : dt);
    while (next_sample < sched.samples.size() &&
           sched.samples[next_sample].t <= iv.t1 + eps) {
      const auto& sm = sched.samples[next_sample];
      if (sm.t > now + eps) {
        advance(sm.t);
        now = sm.t;
      }
      sample(sm);
      // Nothing after the last sample is observed by an early-stopping
      // caller (no trace, and final_vc is read at the stop point): skip
      // the tail of the final cycle.
      if (++next_sample == sched.samples.size() && early_stop) return;
    }
    if (iv.t1 > now + eps) {
      advance(iv.t1);
      now = iv.t1;
    }
    if (obs::collecting()) {
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - iv_start;
      obs::observe(op_wall_metric(sched, iv.op_index), wall.count());
    }
  }
}

EnsembleColumnSim::EnsembleColumnSim(std::vector<const ColumnSimulator*> sims)
    : sims_(std::move(sims)), mna_(lane_netlists(sims_)) {
  // run_lanes takes the conditions and settings of lane 0 for all lanes.
  for (const ColumnSimulator* s : sims_) {
    require(s->conditions() == sims_[0]->conditions(),
            "EnsembleColumnSim: lanes must share operating conditions");
    require(s->settings() == sims_[0]->settings(),
            "EnsembleColumnSim: lanes must share simulation settings");
  }
}

std::vector<EnsembleRunResult> EnsembleColumnSim::run_batch(
    const OpSequence& seq, Side side, const std::vector<double>& vc_init,
    const std::vector<char>& active, bool early_stop, double lte_scale) {
  OBS_SPAN("column.run_batch");
  return run_lanes(seq, side, vc_init, active, early_stop, lte_scale,
                   /*probes=*/false);
}

std::vector<RunResult> EnsembleColumnSim::run_lanes(
    const OpSequence& seq, Side side, const std::vector<double>& vc_init,
    const std::vector<char>& active, bool early_stop, double lte_scale,
    bool probes) {
  require(lte_scale >= 1.0,
          "EnsembleColumnSim::run_batch: lte_scale must be >= 1");
  const size_t nlanes = sims_.size();
  std::vector<char> act = active;
  if (act.empty()) act.assign(nlanes, 1);
  require(act.size() == nlanes && vc_init.size() == nlanes,
          "EnsembleColumnSim::run_batch: per-lane input size mismatch");

  std::vector<RunResult> results(nlanes);
  const OperatingConditions& cond = sims_[0]->conditions();
  const SimSettings& st = sims_[0]->settings();

  // Compiling installs each lane's waveforms; the schedule itself depends
  // only on (cond, side, seq, timing), which lanes share.
  std::optional<CompiledSchedule> sched;
  long active_count = 0;
  for (size_t l = 0; l < nlanes; ++l) {
    if (act[l] == 0) continue;
    ++active_count;
    CompiledSchedule s = compile_sequence(sims_[l]->column(), cond, side, seq,
                                          st.timing);
    if (!sched) sched = std::move(s);
  }
  if (!sched) return results;
  obs::count("ensemble.runs");
  obs::count("ensemble.lanes", active_count);
  count_transients(active_count);

  TransientOptions topt;
  topt.dt = st.dt;
  topt.integrator = st.integrator;
  topt.temperature = cond.kelvin();
  topt.newton = st.newton;
  topt.adaptive = true;
  topt.lte_tol = st.lte_tol * lte_scale;
  topt.dt_min = st.dt_min;
  topt.dt_max = st.dt_max;
  topt.reuse_jacobian = st.reuse_jacobian;
  EnsembleTransient sim(mna_, topt, act);

  for (size_t l = 0; l < nlanes; ++l) {
    if (act[l] == 0) continue;
    const DramColumn& col = sims_[l]->column();
    for (const auto& [node, v] : floating_cell_ics(col, cond, side, vc_init[l]))
      sim.set_initial_condition(l, node, v);
    if (probes) {
      sim.add_probe(l, "bt", col.bt());
      sim.add_probe(l, "bc", col.bc());
      sim.add_probe(l, "vc", col.cell_node(side));
    }
    results[l].ops.resize(seq.size());
    for (size_t i = 0; i < seq.size(); ++i) results[l].ops[i].kind = seq[i].kind;
  }

  walk_schedule(
      *sched, st.dt, st.del_steps, early_stop,
      [&](double dt) { sim.set_dt(dt); }, [&](double t) { sim.run(t); },
      [&](const CompiledSchedule::Sample& sm) {
        for (size_t l = 0; l < nlanes; ++l) {
          if (act[l] == 0) continue;
          const DramColumn& col = sims_[l]->column();
          OpResult& op = results[l].ops[static_cast<size_t>(sm.op_index)];
          if (sm.kind == CompiledSchedule::Sample::Kind::ReadBit) {
            op.sense_margin =
                sim.voltage(l, col.bt()) - sim.voltage(l, col.bc());
            op.bit = op.sense_margin > 0.0 ? 1 : 0;
          } else {
            op.vc = sim.voltage(l, col.cell_node(side));
          }
        }
      });

  for (size_t l = 0; l < nlanes; ++l) {
    if (act[l] == 0) continue;
    results[l].final_vc = sim.voltage(l, sims_[l]->column().cell_node(side));
    if (probes) results[l].trace = sim.trace(l);
  }
  return results;
}

std::vector<int> EnsembleColumnSim::read_of_initial_batch(
    const std::vector<double>& vc_init, Side side,
    const std::vector<char>& active, bool early_stop, double lte_scale) {
  const std::vector<EnsembleRunResult> rr =
      run_batch({Operation::r()}, side, vc_init, active, early_stop,
                lte_scale);
  std::vector<int> bits(sims_.size(), -1);
  for (size_t l = 0; l < sims_.size(); ++l)
    if (!rr[l].ops.empty() && rr[l].ops[0].bit.has_value())
      bits[l] = *rr[l].ops[0].bit;
  return bits;
}

}  // namespace dramstress::dram
