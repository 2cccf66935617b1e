#include "analysis/detection.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace dramstress::analysis {

using dram::Operation;
using dram::OpKind;
using dram::OpSequence;

std::vector<double> default_retention_times() { return {100e-6, 3e-6}; }

std::string DetectionCondition::str() const {
  std::vector<std::string> parts;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    const char* prefix = op.neighbor ? "n:" : "";
    if (op.kind == OpKind::R && i + 1 == ops.size()) {
      parts.push_back(util::format("%sr%d", prefix, expected));
    } else if (op.kind == OpKind::Del) {
      parts.push_back(util::format("del(%s)",
                                   util::eng(op.del_seconds, "s").c_str()));
    } else {
      parts.push_back(std::string(prefix) + dram::to_string(op.kind));
    }
  }
  return util::join(parts, " ");
}

int saturation_count(const dram::ColumnSimulator& sim, dram::Side side, int x,
                     const DetectionOptions& opt) {
  require(x == 0 || x == 1, "saturation_count: x must be 0/1");
  const double vdd = sim.conditions().vdd;
  const OpSequence writes(static_cast<size_t>(opt.max_charge_ops),
                          x == 1 ? Operation::w1() : Operation::w0());
  const double init = dram::physical_level(side, 1 - x, vdd);
  const dram::RunResult rr = sim.run_samples(writes, init, side);
  double prev = init;
  for (int k = 0; k < opt.max_charge_ops; ++k) {
    const double vc = rr.vc_after(static_cast<size_t>(k));
    if (std::fabs(vc - prev) < opt.saturation_epsilon) return std::max(1, k);
    prev = vc;
  }
  return opt.max_charge_ops;
}

bool condition_fails(const dram::ColumnSimulator& sim, dram::Side side,
                     const DetectionCondition& cond) {
  return condition_outcome(sim, side, cond).fails;
}

ConditionOutcome condition_outcome(const dram::ColumnSimulator& sim,
                                   dram::Side side,
                                   const DetectionCondition& cond) {
  const double init =
      dram::physical_level(side, cond.init_logical, sim.conditions().vdd);
  const dram::RunResult rr = sim.run_samples(cond.ops, init, side);
  ConditionOutcome out;
  // Sign the *last read's* differential so that positive means "read what
  // was expected": a read returns 1 when bt - bc > 0, so expecting 0 flips
  // the sign.
  for (size_t i = rr.ops.size(); i-- > 0;) {
    if (!rr.ops[i].bit.has_value()) continue;
    out.fails = *rr.ops[i].bit != cond.expected;
    out.margin = cond.expected == 1 ? rr.ops[i].sense_margin
                                    : -rr.ops[i].sense_margin;
    return out;
  }
  throw ModelError("condition_outcome: sequence contains no read");
}

std::vector<DetectionCondition> candidate_conditions(
    const dram::ColumnSimulator& sim, dram::Side side,
    const DetectionOptions& opt) {
  std::vector<DetectionCondition> out;
  const int k1 = saturation_count(sim, side, 1, opt);
  const int k0 = saturation_count(sim, side, 0, opt);

  auto charge = [](int x, int k) {
    return OpSequence(static_cast<size_t>(k),
                      x == 1 ? Operation::w1() : Operation::w0());
  };

  // Transition-style: k*w(x) w(~x) r(~x).
  for (int x : {1, 0}) {
    DetectionCondition c;
    c.init_logical = 1 - x;
    c.ops = charge(x, x == 1 ? k1 : k0);
    c.ops.push_back(x == 1 ? Operation::w0() : Operation::w1());
    c.ops.push_back(Operation::r());
    c.expected = 1 - x;
    out.push_back(std::move(c));
  }
  // Immediate retention-style: k*w(x) r(x).
  for (int x : {1, 0}) {
    DetectionCondition c;
    c.init_logical = 1 - x;
    c.ops = charge(x, x == 1 ? k1 : k0);
    c.ops.push_back(Operation::r());
    c.expected = x;
    out.push_back(std::move(c));
  }
  // Coupling-style: k*w(x), aggressor writes of ~x on the neighbour,
  // optional pause, then r(x) on the victim.
  if (opt.include_coupling) {
    for (double del : {0.0, opt.retention_times.front()}) {
      for (int x : {1, 0}) {
        DetectionCondition c;
        c.init_logical = 1 - x;
        c.ops = charge(x, x == 1 ? k1 : k0);
        c.ops.push_back(x == 1 ? Operation::nw0() : Operation::nw1());
        c.ops.push_back(x == 1 ? Operation::nw0() : Operation::nw1());
        if (del > 0.0) c.ops.push_back(Operation::del(del));
        c.ops.push_back(Operation::r());
        c.expected = x;
        out.push_back(std::move(c));
      }
    }
  }

  // Delayed retention-style: k*w(x) del r(x), one candidate per pause.
  for (double del : opt.retention_times) {
    for (int x : {1, 0}) {
      DetectionCondition c;
      c.init_logical = 1 - x;
      c.ops = charge(x, x == 1 ? k1 : k0);
      c.ops.push_back(Operation::del(del));
      c.ops.push_back(Operation::r());
      c.expected = x;
      out.push_back(std::move(c));
    }
  }
  return out;
}

bool condition_valid_on_healthy(const dram::ColumnSimulator& sim,
                                dram::Side side,
                                const DetectionCondition& cond) {
  return !condition_fails(sim, side, cond);
}

std::optional<DetectionCondition> derive_detection_condition(
    const dram::ColumnSimulator& sim, dram::Side side,
    const DetectionOptions& opt) {
  for (const DetectionCondition& cand : candidate_conditions(sim, side, opt)) {
    if (condition_fails(sim, side, cand)) return cand;
  }
  return std::nullopt;
}

// NOTE: derive_detection_condition is evaluated at the *injected* defect,
// so it cannot apply the healthy-validity filter itself; analyze_defect
// re-checks validity with the defect removed before accepting a candidate.

}  // namespace dramstress::analysis
