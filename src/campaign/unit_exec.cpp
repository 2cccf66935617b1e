#include "campaign/unit_exec.hpp"

#include <chrono>
#include <fstream>
#include <optional>

#include "analysis/border.hpp"
#include "analysis/result_plane.hpp"
#include "dram/column.hpp"
#include "dram/column_sim.hpp"
#include "obs/metrics.hpp"
#include "stress/optimizer.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"

namespace dramstress::campaign {

namespace util = dramstress::util;

const char* to_string(UnitStatus status) {
  switch (status) {
    case UnitStatus::Done: return "done";
    case UnitStatus::Cached: return "cached";
    case UnitStatus::Quarantined: return "quarantined";
    case UnitStatus::Skipped: return "skipped";
  }
  return "?";
}

std::string defect_label(const defect::Defect& d) {
  std::string s = defect::to_string(d.kind);
  if (d.side == dram::Side::Comp) s += ".comp";
  return s;
}

std::string compute_unit_payload(const CampaignPlan& plan, const WorkUnit& u,
                                 const dram::TechnologyParams& tech,
                                 const dram::SimSettings& settings) {
  const defect::Defect& d = plan.defect_of(u);
  const StressPoint& p = plan.point_of(u);
  const defect::SweepRange range = defect::default_sweep_range(d.kind);
  dram::DramColumn column(tech);
  dram::ColumnSimulator sim(column, p.condition, settings);
  const long t0 = dram::thread_transients();
  util::json::Writer inner;
  std::optional<analysis::BorderResult> border_state;
  switch (u.kind) {
    case UnitKind::Border: {
      const analysis::BorderResult r =
          analysis::analyze_defect(column, d, sim);
      analysis::append_json(inner, r, range);
      border_state = r;
      break;
    }
    case UnitKind::Planes: {
      analysis::PlaneOptions po;
      po.num_r_points = plan.spec.plane_r_points;
      po.ops_per_point = plan.spec.plane_ops_per_point;
      po.r_lo = range.lo;
      po.r_hi = range.hi;
      // The executor already parallelizes over units; a nested plane
      // sweep would oversubscribe the machine.
      po.threads = 1;
      const analysis::PlaneSet s =
          analysis::generate_plane_set(column, d, sim, po);
      analysis::append_json(inner, s);
      break;
    }
    case UnitKind::Optimize: {
      stress::OptimizerOptions oo;
      oo.settings = settings;
      // The border unit already ran this corner's Section-3 analysis with
      // these border options: start from its state instead of redoing it.
      const util::json::Value border = util::json::parse(u.border_payload);
      const util::json::Value* bs = border.find("border_state");
      if (bs == nullptr)
        throw ModelError("campaign: the border payload of " + u.id +
                         " has no border_state block");
      oo.nominal_border = analysis::parse_border_state(*bs);
      const stress::OptimizationResult r =
          stress::optimize_stresses(column, d, p.condition, oo);
      stress::append_json(inner, r, range);
      break;
    }
  }
  // Units run one-per-thread, so the thread-local counter delta is the
  // unit's exact cost even when the executor is parallel.
  util::json::Writer w;
  w.begin_object();
  w.key("transients").value(dram::thread_transients() - t0);
  w.key("result");
  util::json::append(w, util::json::parse(inner.str()));
  if (border_state.has_value()) {
    w.key("border_state");
    analysis::append_border_state(w, *border_state);
  }
  w.end_object();
  return w.str();
}

const util::json::Value* payload_result(const util::json::Value& v) {
  const util::json::Value* r = v.find("result");
  return r != nullptr ? r : &v;
}

bool border_shows_fault(const std::string& payload) {
  const util::json::Value v = util::json::parse(payload);
  const util::json::Value* res = payload_result(v);
  const util::json::Value* br = res->find("br");
  const util::json::Value* fe = res->find("fails_everywhere");
  return (br != nullptr && br->is_number()) ||
         (fe != nullptr && fe->is_bool() && fe->boolean);
}

UnitOutcome compute_with_retries(
    const CampaignPlan& plan, const WorkUnit& u,
    const dram::TechnologyParams& tech,
    const std::function<void(const WorkUnit&, int attempt)>& fault_injector) {
  UnitOutcome out;
  dram::SimSettings settings = plan.spec.settings;
  const RetryPolicy& retry = plan.spec.retry;
  const auto start = std::chrono::steady_clock::now();
  std::string err;
  bool succeeded = false;  // UnitStatus::Done is the enum default, so the
                           // post-loop branch must not key off out.status
  for (int attempt = 1; attempt <= retry.max_attempts; ++attempt) {
    if (attempt > 1) {
      settings.newton.max_step *= retry.damping_backoff;
      settings.newton.max_iter += settings.newton.max_iter / 2;
      obs::count("campaign.unit_retried");
    }
    out.attempts = attempt;
    try {
      // Fault point (docs/SERVICE.md): the canonical "worker dies
      // mid-unit" spot -- after the unit is claimed, before its result
      // exists.  `throw` makes this attempt fail (retry / quarantine
      // path); `kill` dies right here (crash-resume path, CI job).
      util::fault::hit("campaign.unit.compute");
      if (fault_injector) fault_injector(u, attempt);
      out.payload = compute_unit_payload(plan, u, tech, settings);
      succeeded = true;
      break;
    } catch (const std::exception& e) {
      err = e.what();
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (retry.timeout_s > 0 && elapsed > retry.timeout_s) {
      err = util::format(
          "exceeded the per-unit timeout of %g s after attempt %d (last "
          "error: %s)",
          retry.timeout_s, attempt, err.c_str());
      break;
    }
  }
  if (succeeded) {
    out.status = UnitStatus::Done;
  } else {
    out.status = UnitStatus::Quarantined;
    out.error = err;
  }
  return out;
}

std::string report_json(const CampaignPlan& plan,
                        const std::vector<UnitOutcome>& outcomes) {
  util::json::Writer w;
  w.begin_object();
  w.key("campaign").value(plan.spec.name);
  long transients_total = 0;
  w.key("units");
  w.begin_array();
  for (const WorkUnit& u : plan.units) {
    const UnitOutcome& out = outcomes[u.index];
    w.begin_object();
    w.key("id").value(u.id);
    w.key("key").value(u.key.hex());
    w.key("kind").value(to_string(u.kind));
    w.key("defect").value(defect_label(plan.defect_of(u)));
    w.key("point").value(plan.point_of(u).name);
    w.key("status").value(out.status == UnitStatus::Cached
                              ? "done"
                              : to_string(out.status));
    if (!out.payload.empty()) {
      const util::json::Value v = util::json::parse(out.payload);
      if (const util::json::Value* t = v.find("transients");
          t != nullptr && t->is_number()) {
        const long n = static_cast<long>(t->number);
        w.key("transients").value(n);
        transients_total += n;
      }
      w.key("result");
      util::json::append(w, *payload_result(v));
    }
    if (!out.error.empty()) w.key("error").value(out.error);
    w.end_object();
  }
  w.end_array();
  // Cost accounting across the whole matrix: cached units contribute
  // the count recorded when they were computed, so the total is stable
  // across resumes.
  w.key("transients_total").value(transients_total);
  w.end_object();
  return w.str();
}

std::string failures_json(const CampaignPlan& plan,
                          const std::vector<UnitOutcome>& outcomes) {
  util::json::Writer w;
  w.begin_object();
  w.key("campaign").value(plan.spec.name);
  w.key("failures");
  w.begin_array();
  for (const WorkUnit& u : plan.units) {
    const UnitOutcome& out = outcomes[u.index];
    if (out.status != UnitStatus::Quarantined) continue;
    w.begin_object();
    w.key("id").value(u.id);
    w.key("key").value(u.key.hex());
    w.key("attempts").value(out.attempts);
    w.key("error").value(out.error);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  if (!f.good()) throw ModelError("campaign: cannot write " + path);
  f << text << '\n';
  f.flush();
  if (!f.good()) throw ModelError("campaign: write to " + path + " failed");
}

}  // namespace dramstress::campaign
