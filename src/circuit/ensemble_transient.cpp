#include "circuit/ensemble_transient.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dramstress::circuit {

EnsembleTransient::EnsembleTransient(EnsembleMna& sys, TransientOptions options,
                                     std::vector<char> active)
    : sys_(&sys), opt_(options), active_(std::move(active)) {
  require(opt_.dt > 0.0, "EnsembleTransient: dt must be positive");
  require(opt_.adaptive,
          "EnsembleTransient: only the adaptive (LTE) path is batched");
  const size_t nlanes = sys_->num_lanes();
  if (active_.empty()) active_.assign(nlanes, 1);
  require(active_.size() == nlanes,
          "EnsembleTransient: active mask size must match lane count");
  const size_t n = static_cast<size_t>(sys_->num_unknowns());
  x_.assign(nlanes, numeric::Vector(n, 0.0));
  time_.assign(nlanes, 0.0);
  first_step_done_.assign(nlanes, 0);
  accepted_.assign(nlanes, 0);
  rejected_.assign(nlanes, 0);
  breakpoints_.resize(nlanes);
  ctrl_.resize(nlanes);
  probe_nodes_.resize(nlanes);
  traces_.resize(nlanes);
  ctx_.resize(nlanes);
  x_try_.resize(nlanes);
  results_.resize(nlanes);
}

void EnsembleTransient::set_initial_condition(size_t lane, NodeId node,
                                              double volts) {
  require(!started_,
          "EnsembleTransient: initial conditions must precede run()");
  require(node != kGround, "EnsembleTransient: cannot set IC on ground");
  x_[lane][static_cast<size_t>(node - 1)] = volts;
}

void EnsembleTransient::add_probe(size_t lane, const std::string& name,
                                  NodeId node) {
  require(!started_, "EnsembleTransient: probes must be added before run()");
  probe_nodes_[lane].push_back(node);
  traces_[lane].names.push_back(name);
  traces_[lane].samples.emplace_back();
}

void EnsembleTransient::record(size_t lane) {
  const std::vector<NodeId>& nodes = probe_nodes_[lane];
  if (nodes.empty()) return;
  traces_[lane].time.push_back(time_[lane]);
  for (size_t i = 0; i < nodes.size(); ++i)
    traces_[lane].samples[i].push_back(voltage(lane, nodes[i]));
}

void EnsembleTransient::set_dt(double dt) {
  require(dt > 0.0, "EnsembleTransient: dt must be positive");
  opt_.dt = dt;
  for (auto& c : ctrl_)
    if (c) c->reset(dt);
}

void EnsembleTransient::ensure_started() {
  if (started_) return;
  started_ = true;
  // One EnsembleTransient = one simulation run: forget every carried
  // factorization so the run is a pure function of its inputs.
  sys_->begin_run();
  StepControlOptions sopt;
  sopt.lte_tol = opt_.lte_tol;
  sopt.dt_min = opt_.dt_min;
  sopt.dt_max = opt_.dt_max;
  for (size_t l = 0; l < sys_->num_lanes(); ++l) {
    if (active_[l] == 0) continue;
    // UIC start per lane, as TransientSim::ensure_started.
    StampContext ctx;
    ctx.mode = AnalysisMode::TransientBe;
    ctx.time = time_[l];
    ctx.dt = opt_.dt;
    ctx.temperature = opt_.temperature;
    ctx.x = &x_[l];
    ctx.num_nodes = sys_->num_nodes();
    std::vector<double> bps;
    for (const auto& dev : sys_->lane_netlist(l).devices()) {
      dev->init_state(ctx);
      dev->append_breakpoints(bps);
    }
    // Per-lane registry (from the lane's own devices): lanes never see
    // each other's landing times, which is what keeps a lane's trajectory
    // independent of the batch composition.
    breakpoints_[l].add_all(bps);
    ctrl_[l].emplace(sopt, opt_.dt, static_cast<size_t>(sys_->num_nodes()));
    ctrl_[l]->seed(time_[l], x_[l]);
    record(l);
  }
}

void EnsembleTransient::commit(size_t lane, numeric::Vector&& x_new,
                               double t_new, const StampContext& ctx0) {
  x_[lane] = std::move(x_new);
  const double dt = t_new - time_[lane];
  time_[lane] = t_new;
  first_step_done_[lane] = 1;
  ++accepted_[lane];
  obs::count("step.accepted");
  obs::observe("step.dt", dt);
  StampContext ctx = ctx0;
  ctx.x = &x_[lane];
  for (const auto& dev : sys_->lane_netlist(lane).devices())
    dev->commit_step(ctx);
  record(lane);
}

void EnsembleTransient::run(double t_end) {
  OBS_SPAN("transient.run");
  ensure_started();
  const double teps = 1e-15;
  const size_t nlanes = sys_->num_lanes();
  for (size_t l = 0; l < nlanes; ++l)
    if (active_[l] != 0)
      require(t_end > time_[l],
              "EnsembleTransient::run: t_end must exceed current time");

  NewtonOptions nopt = opt_.newton;
  nopt.reuse_jacobian = opt_.reuse_jacobian;

  std::vector<size_t> stepping;
  stepping.reserve(nlanes);
  std::vector<char> on_bp(nlanes, 0);
  std::vector<char> arrived(nlanes, 0);

  for (;;) {
    stepping.clear();
    for (size_t l = 0; l < nlanes; ++l) {
      if (active_[l] == 0) continue;
      if (time_[l] < t_end - teps) {
        stepping.push_back(l);
      } else if (arrived[l] == 0) {
        arrived[l] = 1;
        // Early arrival: the lane waits out the rest of the batch's round
        // set (run() boundaries are the common checkpoints).
        obs::count("ensemble.retired");
      }
    }
    if (stepping.empty()) break;

    // Per-lane step proposal, exactly as TransientSim::run_adaptive.
    for (const size_t l : stepping) {
      StepController& ctrl = *ctrl_[l];
      const double bp = breakpoints_[l].next_after(time_[l] + teps);
      const double limit = std::min(bp, t_end);
      double target = time_[l] + ctrl.dt();
      if (target > limit - ctrl.options().dt_min) target = limit;
      on_bp[l] = target == bp ? 1 : 0;
      const double h = target - time_[l];

      const bool use_trap = opt_.integrator == Integrator::Trapezoidal &&
                            first_step_done_[l] != 0;
      StampContext& ctx = ctx_[l];
      ctx = StampContext{};
      ctx.mode =
          use_trap ? AnalysisMode::TransientTrap : AnalysisMode::TransientBe;
      ctx.time = target;
      ctx.dt = h;
      ctx.temperature = opt_.temperature;
      if (!ctrl.predict(target, x_try_[l])) x_try_[l] = x_[l];
    }

    sys_->solve_lockstep(stepping, ctx_, x_try_, nopt, results_);

    for (const size_t l : stepping) {
      StepController& ctrl = *ctrl_[l];
      const double target = ctx_[l].time;
      const double h = ctx_[l].dt;
      if (!results_[l].converged) {
        if (ctrl.at_dt_min()) {
          throw ConvergenceError(util::format(
              "ensemble transient: Newton failed at t=%.6g ns even at "
              "dt_min=%.3g ps (lane %zu, residual %.3e)",
              target * 1e9, ctrl.options().dt_min * 1e12, l,
              results_[l].residual));
        }
        ctrl.halve();
        ++rejected_[l];
        obs::count("step.rejected_newton");
        continue;
      }
      const double err = ctrl.error_norm(target, x_try_[l]);
      const bool h_at_floor = h <= ctrl.options().dt_min * (1.0 + 1e-12);
      if (err > 1.0) {
        if (!h_at_floor) {
          ctrl.reject(err);
          ++rejected_[l];
          obs::count("step.rejected_lte");
          continue;
        }
        obs::count("step.forced_floor");
      }
      commit(l, std::move(x_try_[l]), target, ctx_[l]);
      ctrl.accept(time_[l], x_[l], err);
      if (on_bp[l] != 0) ctrl.clamp_to(opt_.dt);
    }
  }
}

}  // namespace dramstress::circuit
