#include "dram/ensemble_column.hpp"

#include <chrono>
#include <cmath>
#include <optional>

#include "circuit/ensemble_transient.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace dramstress::dram {

using circuit::EnsembleTransient;
using circuit::TransientOptions;

namespace {

std::vector<circuit::Netlist*> lane_netlists(
    const std::vector<ColumnSimulator*>& sims) {
  require(!sims.empty(), "EnsembleColumnSim: at least one lane required");
  std::vector<circuit::Netlist*> nets;
  nets.reserve(sims.size());
  for (ColumnSimulator* s : sims) nets.push_back(&s->column().netlist());
  return nets;
}

}  // namespace

EnsembleColumnSim::EnsembleColumnSim(std::vector<ColumnSimulator*> sims)
    : sims_(std::move(sims)), mna_(lane_netlists(sims_)) {
  const OperatingConditions& cond = sims_[0]->conditions();
  const SimSettings& st = sims_[0]->settings();
  require(supports(st),
          "EnsembleColumnSim: batching requires adaptive, non-dense settings");
  for (const ColumnSimulator* s : sims_) {
    const OperatingConditions& c = s->conditions();
    require(c.vdd == cond.vdd && c.temp_c == cond.temp_c &&
                c.tcyc == cond.tcyc && c.duty == cond.duty,
            "EnsembleColumnSim: lanes must share operating conditions");
    const SimSettings& t = s->settings();
    require(t.dt == st.dt && t.integrator == st.integrator &&
                t.adaptive == st.adaptive && t.lte_tol == st.lte_tol &&
                t.dt_min == st.dt_min && t.dt_max == st.dt_max &&
                t.reuse_jacobian == st.reuse_jacobian &&
                t.del_steps == st.del_steps && t.backend == st.backend,
            "EnsembleColumnSim: lanes must share simulation settings");
  }
}

std::vector<EnsembleRunResult> EnsembleColumnSim::run_batch(
    const OpSequence& seq, Side side, const std::vector<double>& vc_init,
    const std::vector<char>& active, bool early_stop, double lte_scale) {
  require(lte_scale >= 1.0,
          "EnsembleColumnSim::run_batch: lte_scale must be >= 1");
  OBS_SPAN("column.run_batch");
  const size_t nlanes = sims_.size();
  std::vector<char> act = active;
  if (act.empty()) act.assign(nlanes, 1);
  require(act.size() == nlanes && vc_init.size() == nlanes,
          "EnsembleColumnSim::run_batch: per-lane input size mismatch");

  std::vector<EnsembleRunResult> results(nlanes);
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
  topt.record_stride = st.record_stride;
  topt.adaptive = st.adaptive;
  topt.lte_tol = st.lte_tol * lte_scale;
  topt.dt_min = st.dt_min;
  topt.dt_max = st.dt_max;
  topt.reuse_jacobian = st.reuse_jacobian;
  EnsembleTransient sim(mna_, topt, act);

  // --- initial conditions, per lane (mirrors ColumnSimulator::run) --------
  const double kOpenThreshold = 10e3;
  for (size_t l = 0; l < nlanes; ++l) {
    if (act[l] == 0) continue;
    DramColumn& col = sims_[l]->column();
    const double vbl = col.tech().vbl_frac * cond.vdd;
    const double vref = reference_level(col.tech(), cond.vdd, cond.kelvin());
    struct SrcInit {
      circuit::VoltageSource* src;
      const char* node;
    };
    auto& c = col.controls();
    const SrcInit inits[] = {
        {c.vdd, "vddn"}, {c.vbl, "vbln"},   {c.vref, "vrefn"}, {c.eq, "eq"},
        {c.san, "sann"}, {c.sap, "sapn"},   {c.wsl, "wsl"},    {c.csl, "csl"},
        {c.dt, "dt"},    {c.dc, "dc"},      {c.wl_true, "wl0"},
        {c.wl_comp, "wl0c"}, {c.wl_idle_t, "t1_wl"}, {c.wl_idle_c, "c1_wl"},
        {c.rwl_t, "rt_wl"}, {c.rwl_c, "rc_wl"},
    };
    for (const SrcInit& si : inits)
      sim.set_initial_condition(l, col.netlist().find_node(si.node),
                                si.src->value(0.0));
    sim.set_initial_condition(l, col.bt(), vbl);
    sim.set_initial_condition(l, col.bc(), vbl);
    sim.set_initial_condition(l, col.netlist().find_node("rt_cn"), vref);
    sim.set_initial_condition(l, col.netlist().find_node("rc_cn"), vref);
    sim.set_initial_condition(l, col.idle_cell_node(Side::True), 0.0);
    sim.set_initial_condition(l, col.idle_cell_node(Side::Comp), 0.0);
    for (Side s : {Side::True, Side::Comp}) {
      const double v = (s == side) ? vc_init[l] : 0.0;
      const bool o3_open =
          col.segment(s, "o3")->resistance() > kOpenThreshold;
      const bool o2_open =
          col.segment(s, "o2")->resistance() > kOpenThreshold;
      sim.set_initial_condition(l, col.cell_node(s), v);
      sim.set_initial_condition(l, col.seg_node_nm(s), o3_open ? vbl : v);
      sim.set_initial_condition(l, col.seg_node_ns(s),
                                (o3_open || o2_open) ? vbl : v);
      sim.set_initial_condition(l, col.seg_node_nd(s), vbl);
    }
    sim.set_initial_condition(l, col.netlist().find_node("doutb"), 0.0);
    sim.set_initial_condition(l, col.dout(), 0.0);

    results[l].ops.resize(seq.size());
    for (size_t i = 0; i < seq.size(); ++i) results[l].ops[i].kind = seq[i].kind;
  }

  // --- execute the schedule; sample times are common checkpoints ----------
  size_t next_sample = 0;
  const double eps = 1e-15;
  double now = 0.0;
  bool done = false;
  for (const auto& iv : sched->intervals) {
    const double span = iv.t1 - iv.t0;
    sim.set_dt(iv.is_del ? std::max(st.dt, span / st.del_steps) : st.dt);
    while (next_sample < sched->samples.size() &&
           sched->samples[next_sample].t <= iv.t1 + eps) {
      const auto& sm = sched->samples[next_sample];
      if (sm.t > now + eps) {
        sim.run(sm.t);
        now = sm.t;
      }
      for (size_t l = 0; l < nlanes; ++l) {
        if (act[l] == 0) continue;
        DramColumn& col = sims_[l]->column();
        OpResult& op = results[l].ops[static_cast<size_t>(sm.op_index)];
        if (sm.kind == CompiledSchedule::Sample::Kind::ReadBit) {
          op.sense_margin =
              sim.voltage(l, col.bt()) - sim.voltage(l, col.bc());
          op.bit = op.sense_margin > 0.0 ? 1 : 0;
        } else {
          op.vc = sim.voltage(l, col.cell_node(side));
        }
      }
      ++next_sample;
      if (early_stop && next_sample == sched->samples.size()) {
        // Nothing after the last sample is observed by any consumer of a
        // batched run (no trace, and final_vc is read at the stop point):
        // skip the tail of the final cycle.
        done = true;
        break;
      }
    }
    if (done) break;
    if (iv.t1 > now + eps) {
      sim.run(iv.t1);
      now = iv.t1;
    }
  }

  for (size_t l = 0; l < nlanes; ++l) {
    if (act[l] == 0) continue;
    results[l].final_vc = sim.voltage(l, sims_[l]->column().cell_node(side));
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
