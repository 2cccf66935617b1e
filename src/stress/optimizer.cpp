#include "stress/optimizer.hpp"

#include <cmath>

#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace dramstress::stress {

using analysis::BorderResult;
using analysis::DetectionCondition;
using dram::OpKind;
using dram::Operation;

const char* to_string(DecisionMethod method) {
  switch (method) {
    case DecisionMethod::KeptNominal: return "nominal";
    case DecisionMethod::ProbedDirectly: return "probe";
    case DecisionMethod::BorderComparison: return "BR-compare";
  }
  return "?";
}

double AxisDecision::nominal_value() const {
  return probe.candidates[probe.nominal_index].value;
}

std::string AxisDecision::direction() const {
  const double nom = nominal_value();
  if (chosen_value < nom) return "decrease";
  if (chosen_value > nom) return "increase";
  return "keep";
}

double OptimizationResult::coverage_gain_decades() const {
  const auto range = defect::default_sweep_range(defect.kind);
  return stressed_border.failing_decades(range) -
         nominal_border.failing_decades(range);
}

DetectionCondition mirror_condition(const DetectionCondition& cond) {
  DetectionCondition out = cond;
  for (Operation& op : out.ops) {
    if (op.kind == OpKind::W0)
      op.kind = OpKind::W1;
    else if (op.kind == OpKind::W1)
      op.kind = OpKind::W0;
  }
  out.expected = 1 - cond.expected;
  out.init_logical = 1 - cond.init_logical;
  return out;
}

namespace {

/// BR (failing decades) of the nominal condition evaluated at corner `sc`.
/// A corner where the condition is not a valid test (it would fail healthy
/// devices) scores zero.  `hint` carries the BR of the previously evaluated
/// corner in and the BR found here out: adjacent stress values move the
/// border little, so each search warm-starts from its neighbour's answer.
double failing_decades_at(dram::DramColumn& column, const defect::Defect& d,
                          const StressCondition& sc,
                          const DetectionCondition& cond,
                          const OptimizerOptions& opt,
                          std::optional<double>* hint = nullptr,
                          std::optional<double>* slope = nullptr) {
  dram::ColumnSimulator sim(column, sc, opt.settings);
  if (!analysis::condition_valid_on_healthy(sim, d.side, cond)) return 0.0;
  const auto range = defect::default_sweep_range(d.kind);
  analysis::BorderOptions bopt = opt.border;
  if (hint != nullptr) bopt.bracket_hint = *hint;
  if (slope != nullptr) bopt.margin_slope_hint = *slope;
  const BorderResult br =
      analysis::find_border_resistance(column, d, sim, cond, range, bopt);
  if (hint != nullptr && br.br.has_value()) *hint = br.br;
  if (slope != nullptr && br.margin_slope.has_value()) *slope = br.margin_slope;
  return br.failing_decades(range);
}

}  // namespace

OptimizationResult optimize_stresses(dram::DramColumn& column,
                                     const defect::Defect& d,
                                     const StressCondition& nominal) {
  const OptimizerOptions defaults;
  return optimize_stresses(column, d, nominal, defaults);
}

OptimizationResult optimize_stresses(dram::DramColumn& column,
                                     const defect::Defect& d,
                                     const StressCondition& nominal,
                                     const OptimizerOptions& opt) {
  OBS_SPAN("optimizer.run");
  OptimizationResult result;
  result.defect = d;
  result.nominal_sc = nominal;

  // --- Section 3: nominal fault analysis ---------------------------------
  if (opt.nominal_border.has_value()) {
    result.nominal_border = *opt.nominal_border;
  } else {
    dram::ColumnSimulator sim(column, nominal, opt.settings);
    result.nominal_border = analysis::analyze_defect(column, d, sim, opt.border);
  }
  if (!result.nominal_border.br.has_value()) {
    throw ConvergenceError("optimize_stresses: " + d.name() +
                           " shows no faulty behaviour at the nominal "
                           "condition anywhere in its resistance range");
  }
  const DetectionCondition& cond = result.nominal_border.condition;
  const double ref_r = *result.nominal_border.br *
                       (result.nominal_border.fault_at_high_r ? 1.3 : 0.77);
  const double vsa_sign = stressful_vsa_sign(d.side, cond.expected);

  // --- Section 4: per-axis optimization ----------------------------------
  StressCondition stressed = nominal;
  for (StressAxis axis : opt.axes) {
    AxisDecision decision;
    decision.axis = axis;
    decision.probe = probe_axis(column, d, ref_r, cond, nominal, axis,
                                opt.settings);
    const AxisProbe& p = decision.probe;

    const size_t w = p.most_stressful_write(opt.write_tol);
    const auto r = p.most_stressful_read(vsa_sign, opt.read_tol);
    const bool write_conclusive = w != p.nominal_index;

    auto decide_by_border = [&](std::vector<size_t> indices) {
      decision.method = DecisionMethod::BorderComparison;
      indices.push_back(p.nominal_index);
      double best_value = p.candidates[p.nominal_index].value;
      double best_score = -1.0;
      // Seed the first corner's search from the nominal-corner BR (and its
      // margin slope, when the surrogate found one); each later corner
      // warm-starts from the previous one's result.
      std::optional<double> hint = result.nominal_border.br;
      std::optional<double> slope = result.nominal_border.margin_slope;
      for (size_t idx : indices) {
        StressCondition sc = stressed;
        set_axis(sc, axis, p.candidates[idx].value);
        const double score =
            failing_decades_at(column, d, sc, cond, opt, &hint, &slope);
        util::log_debug(util::format(
            "BR-compare %s %s=%.4g: failing decades %.3f", d.name().c_str(),
            to_string(axis), p.candidates[idx].value, score));
        if (score > best_score) {
          best_score = score;
          best_value = p.candidates[idx].value;
        }
      }
      decision.chosen_value = best_value;
    };

    if (!write_conclusive && !r.has_value()) {
      decision.method = DecisionMethod::KeptNominal;
      decision.chosen_value = p.candidates[p.nominal_index].value;
    } else if (!r.has_value()) {
      // Read insensitive (the paper's timing case): follow the write.
      decision.method = DecisionMethod::ProbedDirectly;
      decision.chosen_value = p.candidates[w].value;
    } else if (!write_conclusive) {
      decision.method = DecisionMethod::ProbedDirectly;
      decision.chosen_value = p.candidates[*r].value;
    } else if (*r == w) {
      decision.method = DecisionMethod::ProbedDirectly;
      decision.chosen_value = p.candidates[w].value;
    } else {
      // Conflict (the paper's Vdd case, and temperature when the read is
      // non-monotonic): compare border resistances.
      decide_by_border({w, *r});
    }

    // Safety net: a probe-decided corner must still be a valid test corner
    // (e.g. a long retention pause becomes invalid when hot).
    if (decision.method == DecisionMethod::ProbedDirectly &&
        decision.chosen_value != p.candidates[p.nominal_index].value) {
      StressCondition sc = stressed;
      set_axis(sc, axis, decision.chosen_value);
      dram::ColumnSimulator check(column, sc, opt.settings);
      if (!analysis::condition_valid_on_healthy(check, d.side, cond)) {
        std::vector<size_t> indices;
        if (write_conclusive) indices.push_back(w);
        if (r.has_value()) indices.push_back(*r);
        decide_by_border(indices);
      }
    }
    set_axis(stressed, axis, decision.chosen_value);
    result.decisions.push_back(std::move(decision));
  }
  result.stressed_sc = stressed;

  // --- Section 4.4: SC evaluation ----------------------------------------
  {
    dram::ColumnSimulator sim(column, stressed, opt.settings);
    result.stressed_border =
        analysis::analyze_defect(column, d, sim, opt.border);
    if (!result.stressed_border.br.has_value() &&
        analysis::condition_valid_on_healthy(sim, d.side, cond)) {
      // The stressed corner should never *lose* the fault; if the candidate
      // derivation missed it, fall back to the nominal condition's test,
      // warm-started from where the nominal corner put the border.
      const auto range = defect::default_sweep_range(d.kind);
      analysis::BorderOptions bopt = opt.border;
      bopt.bracket_hint = result.nominal_border.br;
      bopt.margin_slope_hint = result.nominal_border.margin_slope;
      result.stressed_border = analysis::find_border_resistance(
          column, d, sim, cond, range, bopt);
    }
  }
  return result;
}

namespace {

void append_corner(util::json::Writer& w, const StressCondition& sc) {
  w.begin_object();
  w.key("vdd").value(sc.vdd);
  w.key("temp_c").value(sc.temp_c);
  w.key("tcyc").value(sc.tcyc);
  w.key("duty").value(sc.duty);
  w.end_object();
}

}  // namespace

void append_json(util::json::Writer& w, const OptimizationResult& r,
                 const defect::SweepRange& range) {
  w.begin_object();
  w.key("nominal");
  append_corner(w, r.nominal_sc);
  w.key("stressed");
  append_corner(w, r.stressed_sc);
  w.key("nominal_border");
  analysis::append_json(w, r.nominal_border, range);
  w.key("stressed_border");
  analysis::append_json(w, r.stressed_border, range);
  w.key("gain_decades").value(r.coverage_gain_decades());
  w.key("decisions");
  w.begin_array();
  for (const AxisDecision& dec : r.decisions) {
    w.begin_object();
    w.key("axis").value(to_string(dec.axis));
    w.key("nominal").value(dec.nominal_value());
    w.key("chosen").value(dec.chosen_value);
    w.key("direction").value(dec.direction());
    w.key("method").value(to_string(dec.method));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace dramstress::stress
