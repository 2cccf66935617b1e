#include "analysis/border.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/interp.hpp"
#include "numeric/rootfind.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace dramstress::analysis {

double BorderResult::failing_decades(const defect::SweepRange& range) const {
  if (!br.has_value()) return fails_everywhere
                                  ? std::log10(range.hi / range.lo)
                                  : 0.0;
  return fault_at_high_r ? std::log10(range.hi / *br)
                         : std::log10(*br / range.lo);
}

BorderResult classic_find_border(dram::DramColumn& column,
                                 const defect::Defect& d,
                                 const dram::ColumnSimulator& sim,
                                 const DetectionCondition& cond,
                                 const defect::SweepRange& range,
                                 const BorderOptions& opt) {
  OBS_SPAN("border.find");
  require(opt.scan_points >= 3, "classic_find_border: need >= 3 scan points");
  BorderResult result;
  result.condition = cond;
  result.fault_at_high_r = defect::is_series(d.kind);

  const bool series = result.fault_at_high_r;

  defect::Injection inj(column, d, range.lo);
  long probes = 0;
  auto fails_at = [&](double r) {
    ++probes;
    inj.set_value(r);
    return condition_fails(sim, d.side, cond);
  };
  // Every exit reports how many transient probes the search spent -- the
  // quantity the warm start below exists to shrink.
  auto finish = [&]() -> BorderResult {
    obs::count("border.bisect.iters", probes);
    return result;
  };

  // Warm start: when the caller supplies a hint (typically the BR of the
  // neighbouring stress point), bracket it one coarse-grid step wide and
  // expand geometrically on a miss instead of scanning the whole range.
  // The detection predicates are monotone in R (faulty for R >= BR on
  // series defects, R <= BR on shunts), so the expansion reaches the same
  // bracket -- and the same range-endpoint verdicts -- as the full scan,
  // just in fewer probes.
  if (opt.bracket_hint.has_value() && std::isfinite(*opt.bracket_hint) &&
      *opt.bracket_hint > range.lo && *opt.bracket_hint < range.hi) {
    const double step =
        std::pow(range.hi / range.lo, 1.0 / (opt.scan_points - 1));
    double lo = std::max(range.lo, *opt.bracket_hint / step);
    double hi = std::min(range.hi, *opt.bracket_hint * step);
    // A valid bracket behaves healthy at the low end of a series sweep
    // (fails_at == false == !series) and faulty at its high end, and the
    // mirror image for shunts: the "correct side" test is fails_at == series
    // for the high end, != series for the low end.  Widen whichever end
    // landed on the wrong side, doubling the log-width per miss.
    double widen = step;
    if (fails_at(lo) == series) {
      // The boundary, if any, lies below the hint bracket: walk down.
      obs::count("border.bracket.miss");
      while (true) {
        if (lo <= range.lo * (1.0 + 1e-12)) {
          if (series) {  // fails all the way down to range.lo
            result.fails_everywhere = true;
            result.br = range.lo;
          }  // shunt passing at range.lo: never fails, br stays nullopt
          return finish();
        }
        hi = lo;
        lo = std::max(range.lo, lo / widen);
        widen *= widen;
        if (fails_at(lo) != series) break;
      }
    } else if (fails_at(hi) != series) {
      // The boundary lies above the hint bracket: walk up.
      obs::count("border.bracket.miss");
      while (true) {
        if (hi >= range.hi * (1.0 - 1e-12)) {
          if (!series) {  // shunt fails all the way up to range.hi
            result.fails_everywhere = true;
            result.br = range.hi;
          }  // series passing at range.hi: never fails, br stays nullopt
          return finish();
        }
        lo = hi;
        hi = std::min(range.hi, hi * widen);
        widen *= widen;
        if (fails_at(hi) == series) break;
      }
    }
    // Both ends were just probed: lo reads !series, hi reads series.
    result.br = numeric::bisect_known_log(
        [&](double r) { return fails_at(r); }, lo, hi, !series,
        {.x_tol = opt.log_tol});
    return finish();
  }

  // Coarse scan, then refine the transition adjacent to the faulty side.
  const auto grid = numeric::logspace(range.lo, range.hi, opt.scan_points);
  std::vector<bool> fail(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) fail[i] = fails_at(grid[i]);

  // Locate the boundary: for series defects, the *first* failing point
  // scanning up; for shunts, the *last* failing point.
  std::optional<size_t> edge;
  if (result.fault_at_high_r) {
    for (size_t i = 0; i < grid.size(); ++i)
      if (fail[i]) { edge = i; break; }
  } else {
    for (size_t i = grid.size(); i-- > 0;)
      if (fail[i]) { edge = i; break; }
  }
  if (!edge.has_value()) {
    result.br = std::nullopt;
    return finish();  // never fails
  }

  const size_t e = *edge;
  const bool whole_range_faulty =
      (result.fault_at_high_r && e == 0) ||
      (!result.fault_at_high_r && e == grid.size() - 1);
  if (whole_range_faulty) {
    result.fails_everywhere = true;
    result.br = result.fault_at_high_r ? range.lo : range.hi;
    return finish();
  }

  // The scan already holds both verdicts: lo reads !series, hi reads series.
  const double lo = series ? grid[e - 1] : grid[e];
  const double hi = series ? grid[e] : grid[e + 1];
  result.br = numeric::bisect_known_log(
      [&](double r) { return fails_at(r); }, lo, hi, !series,
      {.x_tol = opt.log_tol});
  return finish();
}

std::vector<DetectionCondition> reference_candidates(
    dram::DramColumn& column, const defect::Defect& d,
    const dram::ColumnSimulator& sim, const BorderOptions& opt) {
  // Construct the candidate conditions at a mid-range reference (their
  // charging counts need a representative, not extreme, resistance).
  const defect::SweepRange range = defect::default_sweep_range(d.kind);
  const double k_reference = defect::is_series(d.kind)
                                 ? std::sqrt(range.lo * range.hi)
                                 : 10e3;
  defect::Injection inj(column, d, k_reference);
  return candidate_conditions(sim, d.side, opt.detection);
}

BorderResult refine_border(dram::DramColumn& column, const defect::Defect& d,
                           const dram::ColumnSimulator& sim,
                           const BorderOptions& opt, BorderResult result) {
  const defect::SweepRange range = defect::default_sweep_range(d.kind);
  for (int it = 0; it < opt.refine_iterations && result.br.has_value(); ++it) {
    std::optional<DetectionCondition> refined;
    {
      defect::Injection inj(column, d, *result.br * (result.fault_at_high_r
                                                         ? 1.05
                                                         : 0.95));
      refined = derive_detection_condition(sim, d.side, opt.detection);
    }
    if (refined.has_value() &&
        !condition_valid_on_healthy(sim, d.side, *refined))
      refined.reset();
    if (!refined.has_value() || refined->str() == result.condition.str()) break;
    // The refined condition's BR lands near the current one: warm-start.
    BorderOptions refine_opt = opt;
    refine_opt.bracket_hint = result.br;
    BorderResult again =
        classic_find_border(column, d, sim, *refined, range, refine_opt);
    if (!again.br.has_value()) break;
    // The refined crossing sits near the previous one, so the previous
    // slope stays a usable warm-start hint downstream.
    again.margin_slope = result.margin_slope;
    util::log_debug(util::format(
        "refine_border(%s): refined '%s' -> '%s', BR %s -> %s",
        d.name().c_str(), result.condition.str().c_str(),
        refined->str().c_str(), util::eng(*result.br, "Ohm").c_str(),
        util::eng(*again.br, "Ohm").c_str()));
    result = std::move(again);
  }
  return result;
}

BorderResult classic_analyze_defect(dram::DramColumn& column,
                                    const defect::Defect& d,
                                    const dram::ColumnSimulator& sim,
                                    const BorderOptions& opt) {
  OBS_SPAN("border.analyze");
  const defect::SweepRange range = defect::default_sweep_range(d.kind);
  // Apply the paper's criterion: keep the condition whose failing
  // resistance range is widest.  Candidate order breaks near-ties
  // deterministically (transition conditions first).
  const std::vector<DetectionCondition> candidates =
      reference_candidates(column, d, sim, opt);

  BorderResult result;
  result.fault_at_high_r = defect::is_series(d.kind);
  double best_decades = -1.0;
  const double kTieTolerance = 0.15;  // decades
  for (const DetectionCondition& cand : candidates) {
    // A valid test must pass on the healthy column at this corner
    // (e.g. a 100 us retention pause falsely fails everything at +87 C).
    if (!condition_valid_on_healthy(sim, d.side, cand)) continue;
    const BorderResult r =
        classic_find_border(column, d, sim, cand, range, opt);
    if (!r.br.has_value()) continue;
    const double decades = r.failing_decades(range);
    if (decades > best_decades + kTieTolerance) {
      best_decades = decades;
      result = r;
    }
  }
  if (!result.br.has_value()) return result;  // not detectable by any candidate
  return refine_border(column, d, sim, opt, std::move(result));
}

void append_json(util::json::Writer& w, const BorderResult& r,
                 const defect::SweepRange& range) {
  w.begin_object();
  w.key("br");
  if (r.br.has_value())
    w.value(*r.br);
  else
    w.null();
  w.key("fault_at_high_r").value(r.fault_at_high_r);
  w.key("fails_everywhere").value(r.fails_everywhere);
  w.key("condition").value(r.condition.str());
  w.key("failing_decades").value(r.failing_decades(range));
  w.end_object();
}

namespace {

const util::json::Value& member(const util::json::Value& v, const char* key,
                                util::json::Value::Kind kind) {
  const util::json::Value* m = v.find(key);
  if (m == nullptr || m->kind != kind)
    throw ModelError(util::format("border state: missing or mistyped \"%s\"",
                                  key));
  return *m;
}

std::optional<double> optional_number(const util::json::Value& v,
                                      const char* key) {
  const util::json::Value* m = v.find(key);
  if (m != nullptr && m->is_null()) return std::nullopt;
  return member(v, key, util::json::Value::Kind::Number).number;
}

dram::OpKind op_kind_of(const std::string& name) {
  for (const dram::OpKind k : {dram::OpKind::W0, dram::OpKind::W1,
                               dram::OpKind::R, dram::OpKind::Del})
    if (name == dram::to_string(k)) return k;
  throw ModelError("border state: unknown operation \"" + name + "\"");
}

}  // namespace

void append_border_state(util::json::Writer& w, const BorderResult& r) {
  const auto optional = [&](const char* key, const std::optional<double>& x) {
    w.key(key);
    if (x.has_value())
      w.value(*x);
    else
      w.null();
  };
  w.begin_object();
  optional("br", r.br);
  w.key("fault_at_high_r").value(r.fault_at_high_r);
  w.key("fails_everywhere").value(r.fails_everywhere);
  optional("margin_slope", r.margin_slope);
  w.key("condition").begin_object();
  w.key("ops").begin_array();
  for (const dram::Operation& op : r.condition.ops) {
    w.begin_object();
    w.key("kind").value(dram::to_string(op.kind));
    w.key("neighbor").value(op.neighbor);
    w.key("del_seconds").value(op.del_seconds);
    w.end_object();
  }
  w.end_array();
  w.key("expected").value(r.condition.expected);
  w.key("init_logical").value(r.condition.init_logical);
  w.end_object();
  w.end_object();
}

BorderResult parse_border_state(const util::json::Value& v) {
  using Kind = util::json::Value::Kind;
  BorderResult r;
  r.br = optional_number(v, "br");
  r.fault_at_high_r = member(v, "fault_at_high_r", Kind::Bool).boolean;
  r.fails_everywhere = member(v, "fails_everywhere", Kind::Bool).boolean;
  r.margin_slope = optional_number(v, "margin_slope");
  const util::json::Value& cond = member(v, "condition", Kind::Object);
  for (const util::json::Value& op : member(cond, "ops", Kind::Array).array) {
    dram::Operation o;
    o.kind = op_kind_of(member(op, "kind", Kind::String).string);
    o.neighbor = member(op, "neighbor", Kind::Bool).boolean;
    o.del_seconds = member(op, "del_seconds", Kind::Number).number;
    r.condition.ops.push_back(o);
  }
  r.condition.expected =
      static_cast<int>(member(cond, "expected", Kind::Number).number);
  r.condition.init_logical =
      static_cast<int>(member(cond, "init_logical", Kind::Number).number);
  return r;
}

}  // namespace dramstress::analysis
