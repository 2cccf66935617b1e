#include "circuit/transient.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dramstress::circuit {

double Trace::at(size_t probe, double t) const {
  require(probe < samples.size(), "Trace: probe index out of range");
  require(!time.empty(), "Trace: empty");
  // A truncated trace (e.g. a simulation aborted by a campaign retry
  // timeout) can leave a probe with fewer samples than time points; front()
  // or the interpolation below would then read out of bounds.
  require(samples[probe].size() == time.size(),
          "Trace: probe sample count does not match time axis");
  // `time` is monotone: locate the bracketing samples in O(log N) and
  // interpolate linearly between them (adaptive traces are non-uniform,
  // so nearest-sample snapping would bias threshold measurements).
  const auto it = std::lower_bound(time.begin(), time.end(), t);
  if (it == time.begin()) return samples[probe].front();
  if (it == time.end()) return samples[probe].back();
  const size_t hi = static_cast<size_t>(it - time.begin());
  const size_t lo = hi - 1;
  if (time[hi] == time[lo]) return samples[probe][hi];
  const double frac = (t - time[lo]) / (time[hi] - time[lo]);
  return samples[probe][lo] + frac * (samples[probe][hi] - samples[probe][lo]);
}

double Trace::at(const std::string& name, double t) const {
  return at(probe_index(name), t);
}

double Trace::back(size_t probe) const {
  require(probe < samples.size(), "Trace: probe index out of range");
  require(!samples[probe].empty(), "Trace: empty probe");
  return samples[probe].back();
}

double Trace::back(const std::string& name) const {
  const size_t p = probe_index(name);
  require(!samples[p].empty(), "Trace: empty probe " + name);
  return samples[p].back();
}

size_t Trace::probe_index(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return i;
  throw ModelError("Trace: unknown probe " + name);
}

TransientSim::TransientSim(MnaSystem& sys, TransientOptions options)
    : sys_(&sys), opt_(options) {
  x_.assign(static_cast<size_t>(sys.num_unknowns()), 0.0);
  require(opt_.dt > 0.0, "TransientSim: dt must be positive");
}

void TransientSim::set_initial_condition(NodeId node, double volts) {
  require(!started_, "TransientSim: initial conditions must precede run()");
  require(node != kGround, "TransientSim: cannot set IC on ground");
  x_[static_cast<size_t>(node - 1)] = volts;
}

void TransientSim::add_probe(const std::string& name, NodeId node) {
  require(!started_, "TransientSim: probes must be added before run()");
  probe_nodes_.push_back(node);
  trace_.names.push_back(name);
  trace_.samples.emplace_back();
}

void TransientSim::set_dt(double dt) {
  require(dt > 0.0, "TransientSim: dt must be positive");
  opt_.dt = dt;
  if (ctrl_) ctrl_->reset(dt);
}

void TransientSim::set_temperature(double kelvin) {
  opt_.temperature = kelvin;
}

void TransientSim::add_breakpoint(double t) { breakpoints_.add(t); }

void TransientSim::ensure_started() {
  if (started_) return;
  started_ = true;
  // UIC start: take the user-specified node voltages as the state at t=0
  // and let storage elements remember them.
  StampContext ctx;
  ctx.mode = AnalysisMode::TransientBe;
  ctx.time = time_;
  ctx.dt = opt_.dt;
  ctx.temperature = opt_.temperature;
  ctx.x = &x_;
  ctx.num_nodes = sys_->num_nodes();
  for (const auto& dev : sys_->netlist().devices()) dev->init_state(ctx);
  record();
  // Every source waveform corner becomes a mandatory landing time.
  std::vector<double> bps;
  for (const auto& dev : sys_->netlist().devices())
    dev->append_breakpoints(bps);
  breakpoints_.add_all(bps);
  if (opt_.adaptive) {
    StepControlOptions sopt;
    sopt.lte_tol = opt_.lte_tol;
    sopt.dt_min = opt_.dt_min;
    sopt.dt_max = opt_.dt_max;
    ctrl_.emplace(sopt, opt_.dt, static_cast<size_t>(sys_->num_nodes()));
    ctrl_->seed(time_, x_);
  }
}

void TransientSim::record() {
  trace_.time.push_back(time_);
  for (size_t i = 0; i < probe_nodes_.size(); ++i)
    trace_.samples[i].push_back(voltage(probe_nodes_[i]));
}

void TransientSim::commit(numeric::Vector&& x_new, double t_new,
                          const StampContext& ctx0) {
  x_ = std::move(x_new);
  const double dt = t_new - time_;
  time_ = t_new;
  first_step_done_ = true;
  ++accepted_steps_;
  obs::count("step.accepted");
  obs::observe("step.dt", dt);
  StampContext ctx = ctx0;
  ctx.x = &x_;
  for (const auto& dev : sys_->netlist().devices()) dev->commit_step(ctx);
}

void TransientSim::step(double dt, int depth) {
  // First accepted step (and every retry) uses backward Euler: trapezoidal
  // integration needs a consistent previous current, which BE provides.
  const bool use_trap = opt_.integrator == Integrator::Trapezoidal &&
                        first_step_done_ && depth == 0;
  StampContext ctx;
  ctx.mode = use_trap ? AnalysisMode::TransientTrap : AnalysisMode::TransientBe;
  ctx.time = time_ + dt;
  ctx.dt = dt;
  ctx.temperature = opt_.temperature;
  ctx.num_nodes = sys_->num_nodes();

  numeric::Vector x_try = x_;  // warm start from the previous solution
  const NewtonResult r = sys_->solve(ctx, x_try, opt_.newton);
  if (!r.converged) {
    if (depth >= opt_.max_step_halvings) {
      throw ConvergenceError(util::format(
          "transient: Newton failed at t=%.6g ns even at dt=%.3g ps "
          "(residual %.3e)",
          ctx.time * 1e9, dt * 1e12, r.residual));
    }
    obs::count("step.rejected_newton");
    step(0.5 * dt, depth + 1);
    step(0.5 * dt, depth + 1);
    return;
  }
  commit(std::move(x_try), ctx.time, ctx);
}

void TransientSim::run_fixed(double t_end) {
  // Guard against accumulation drift: derive the step count up front.
  const double span = t_end - time_;
  const int steps = std::max(1, static_cast<int>(std::ceil(span / opt_.dt - 1e-9)));
  const double dt = span / steps;
  for (int k = 0; k < steps; ++k) {
    step(dt, 0);
    if (++steps_since_record_ >= opt_.record_stride) {
      steps_since_record_ = 0;
      record();
    }
  }
  // A stride that does not divide the step count must not drop the final
  // sample: Trace::back has to reflect the state at t_end.
  if (trace_.time.back() != time_) {
    steps_since_record_ = 0;
    record();
  }
}

void TransientSim::run_adaptive(double t_end) {
  StepController& ctrl = *ctrl_;
  const double teps = 1e-15;
  while (time_ < t_end - teps) {
    // Candidate end time: the controller's proposal, cut by the next
    // waveform breakpoint and by t_end; a sliver shorter than dt_min left
    // before the limit is absorbed into this step so the landing is exact.
    const double bp = breakpoints_.next_after(time_ + teps);
    const double limit = std::min(bp, t_end);
    double target = time_ + ctrl.dt();
    if (target > limit - ctrl.options().dt_min) target = limit;
    const bool on_breakpoint = target == bp;
    const double h = target - time_;

    const bool use_trap =
        opt_.integrator == Integrator::Trapezoidal && first_step_done_;
    StampContext ctx;
    ctx.mode =
        use_trap ? AnalysisMode::TransientTrap : AnalysisMode::TransientBe;
    ctx.time = target;
    ctx.dt = h;
    ctx.temperature = opt_.temperature;
    ctx.num_nodes = sys_->num_nodes();

    // Predictor doubles as the Newton warm start.
    numeric::Vector x_try;
    if (!ctrl.predict(target, x_try)) x_try = x_;
    NewtonOptions nopt = opt_.newton;
    nopt.reuse_jacobian = opt_.reuse_jacobian;
    const NewtonResult r = sys_->solve(ctx, x_try, nopt);
    if (!r.converged) {
      if (ctrl.at_dt_min()) {
        throw ConvergenceError(util::format(
            "transient: Newton failed at t=%.6g ns even at dt_min=%.3g ps "
            "(residual %.3e)",
            ctx.time * 1e9, ctrl.options().dt_min * 1e12, r.residual));
      }
      ctrl.halve();
      ++rejected_steps_;
      obs::count("step.rejected_newton");
      continue;
    }

    const double err = ctrl.error_norm(target, x_try);
    const bool h_at_floor = h <= ctrl.options().dt_min * (1.0 + 1e-12);
    if (err > 1.0) {
      if (!h_at_floor) {
        ctrl.reject(err);
        ++rejected_steps_;
        obs::count("step.rejected_lte");
        continue;
      }
      // No smaller step is allowed: commit it anyway, but on the record.
      obs::count("step.forced_floor");
    }

    commit(std::move(x_try), target, ctx);
    ctrl.accept(time_, x_, err);
    // A breakpoint marks a waveform corner: the slope ahead is new, so
    // restart from the conservative initial step instead of carrying a
    // hold-sized proposal into the edge.
    if (on_breakpoint) ctrl.clamp_to(opt_.dt);
    record();
  }
}

void TransientSim::run(double t_end) {
  OBS_SPAN("transient.run");
  ensure_started();
  require(t_end > time_, "TransientSim::run: t_end must exceed current time");
  if (opt_.adaptive)
    run_adaptive(t_end);
  else
    run_fixed(t_end);
}

}  // namespace dramstress::circuit
