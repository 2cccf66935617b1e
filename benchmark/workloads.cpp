// The two batch workloads: Fig. 2 plane set and cold campaign.  Why each
// exists is in benchmark/README.md.
#include <cmath>
#include <cstring>
#include <optional>

#include "analysis/result_plane.hpp"
#include "campaign/plan.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/flow.hpp"
#include "dram/column.hpp"
#include "dsbench.hpp"
#include "util/json.hpp"

namespace dsbench {

namespace json = dramstress::util::json;
using namespace dramstress;

namespace {

/// Appends raw double bits to a byte string (digest input) and tracks
/// whether every value was finite.
struct Bytes {
  std::string data;
  bool finite = true;
  void add(double v) {
    finite = finite && std::isfinite(v);
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    data.append(buf, sizeof v);
  }
};

void add_plane(Bytes& b, const analysis::ResultPlane& p) {
  for (const double r : p.r_values) b.add(r);
  for (const analysis::PlaneCurve& c : p.curves) {
    b.add(c.op_number);
    b.add(c.from_above ? 1.0 : 0.0);
    for (const double v : c.vc) b.add(v);
  }
  for (const double v : p.vsa) b.add(v);
  b.add(p.vmp);
}

/// Digest of operation k: the first one sets it, every later one must
/// reproduce it (the workloads are deterministic).
void check_digest(Result& r, int k, const std::string& digest) {
  if (k == 0)
    r.digest = digest;
  else if (digest != r.digest)
    r.fail("operation " + std::to_string(k) +
           " output differs from operation 0");
}

/// The "br" of a border payload object (nullopt when absent or null).
std::optional<double> br_of(const json::Value* border) {
  const json::Value* br = border != nullptr ? border->find("br") : nullptr;
  if (br == nullptr || !br->is_number()) return std::nullopt;
  return br->number;
}

/// Set-up of both batch workloads, everything before the first defect is
/// simulated: the flow with its calibrated column, the static
/// verification of that column (`dramstress --verify`: netlist lint,
/// every defect's injection, the numeric pre-flight), and the first
/// simulation of the healthy column, a read of a cell holding Vdd.
/// Returns why the set-up is wrong, or an empty string.
std::string set_up_flow(std::optional<core::StressFlow>& flow) {
  flow.emplace();
  const verify::VerifyReport report = flow->verify();
  if (!report.ok()) return "static verification: " + report.str();
  const dram::ColumnSimulator sim(flow->column(), flow->nominal(),
                                  flow->options().settings);
  if (sim.read_of_initial(flow->nominal().vdd, dram::Side::True) != 1)
    return "the healthy cell holding Vdd does not read 1";
  return {};
}

/// The set-up is one more checked output.
void check_set_up(Result& r, const std::string& failure) {
  ++r.attempted;
  if (!failure.empty()) r.fail(failure);
}

}  // namespace

Result run_fig2_planes(const Args& a) {
  Result r;
  const defect::Defect d{defect::DefectKind::O3, dram::Side::True};
  std::optional<core::StressFlow> flow;
  check_set_up(r, set_up_flow(flow));
  const dram::ColumnSimulator sim(flow->column(), flow->nominal(),
                                  flow->options().settings);

  analysis::PlaneOptions opt;  // the paper's 15 R x 4 ops
  if (a.smoke) opt.num_r_points = 3;
  analysis::PlaneSet planes;
  // One untimed plane set first: the first one in a process ran up to
  // 1.7x longer than the rest.
  measure(
      r, a.seconds, a.smoke ? 1 : 0, /*warmup=*/1,
      [] {
        std::optional<core::StressFlow> f;
        set_up_flow(f);
      },
      [&](int) {
        planes = analysis::generate_plane_set(flow->column(), d, sim, opt);
      },
      [&](int k) {
        Bytes b;
        add_plane(b, planes.w0);
        add_plane(b, planes.w1);
        add_plane(b, planes.r);
        ++r.attempted;
        if (!b.finite)
          r.fail("plane set " + std::to_string(k) + " holds a non-finite value");
        check_digest(r, k, hex64(fnv1a(b.data)));
        if (k == 0)
          r.brs["fig2.w0_br"] = analysis::plane_border_resistance(planes.w0, 1);
      });
  return r;
}

Result run_campaign_cold(const Args& a) {
  Result r;
  const dram::TechnologyParams tech = dram::default_technology();
  const std::string spec_path =
      a.specs_dir + (a.smoke ? "/campaign_smoke.json" : "/campaign_cold.json");
  // Set-up: the flow's (set_up_flow), then read and parse the spec and
  // plan its units on the flow's column.
  std::optional<core::StressFlow> flow;
  std::string set_up_failure;
  const auto set_up = [&] {
    set_up_failure = set_up_flow(flow);
    verify::VerifyReport report;
    std::optional<campaign::CampaignSpec> spec =
        campaign::parse_spec(read_file(spec_path), &report);
    if (!spec.has_value())
      throw ModelError(spec_path + ": " + report.str());
    // The seed names the campaign (and so its report bytes) but keeps
    // the matrix and its order: unit order decides how units pack onto
    // the threads, and with a seeded order the threads' busy share
    // ranged from 71% to 87% over ten seeds.
    spec->name += '-';
    spec->name += std::to_string(a.seed);
    return campaign::expand(*spec, flow->column());
  };
  const campaign::CampaignPlan plan = set_up();
  check_set_up(r, set_up_failure);

  campaign::RunnerOptions ro;
  ro.threads = a.threads;
  std::optional<campaign::CampaignResult> result;
  measure(
      r, a.seconds, a.smoke ? 1 : 0, /*warmup=*/0, set_up,
      [&](int k) {
        // Fresh run and cache directories: every pass is cold.
        const std::string dir = "cold" + std::to_string(k);
        campaign::CampaignRunner runner(plan, tech, dir + "/run",
                                        dir + "/cache", ro);
        result = runner.run();
      },
      [&](int k) {
        check_digest(r, k, hex64(fnv1a(read_file(result->report_path))));
        for (const campaign::WorkUnit& u : plan.units) {
          const campaign::UnitOutcome& out = result->outcomes[u.index];
          ++r.attempted;
          if (out.status == campaign::UnitStatus::Quarantined ||
              out.status == campaign::UnitStatus::Skipped) {
            r.fail(u.id + " " + campaign::to_string(out.status) + ": " +
                   out.error);
            continue;
          }
          if (k != 0 || u.kind == campaign::UnitKind::Planes) continue;
          const json::Value v = json::parse(out.payload);
          const json::Value& res = *campaign::payload_result(v);
          const std::string key = "campaign." + u.id;
          if (u.kind == campaign::UnitKind::Border) {
            r.brs[key + ".br"] = br_of(&res);
          } else {
            r.brs[key + ".nominal_br"] = br_of(res.find("nominal_border"));
            r.brs[key + ".stressed_br"] = br_of(res.find("stressed_border"));
          }
        }
      });
  return r;
}

}  // namespace dsbench
