// Declarative campaign specification (JSON).
//
// A campaign is the production shape of the paper's method: a matrix of
// {defect, stress point, analysis kind} expanded into independent work
// units (plan.hpp) and executed fault-tolerantly with an on-disk result
// cache (runner.hpp).  The spec is plain JSON parsed with util/json and
// validated through the verify diagnostics engine: every schema violation
// becomes a line-numbered E3xx diagnostic (docs/LINT.md) instead of a
// crash, so malformed or truncated specs fail with an actionable message.
//
// Schema (docs/CAMPAIGN.md):
//   {
//     "name": "table1-small",
//     "defects": ["o3", "sg/comp"],
//     "points": [{"name": "nominal"},
//                {"name": "fast", "tcyc": 55e-9, "vdd": 2.1}],
//     "analyses": ["border", "planes", "optimize"],
//     "planes": {"r_points": 7, "ops_per_point": 3},
//     "settings": {"lte_tol": 5e-4, "dt": 1e-10},
//     "retry": {"max_attempts": 3, "timeout_s": 0, "damping_backoff": 0.5}
//   }
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "defect/defect.hpp"
#include "dram/column_sim.hpp"
#include "stress/stress.hpp"
#include "verify/diagnostic.hpp"

namespace dramstress::campaign {

/// Analysis kinds a campaign can request per (defect, point) cell.
enum class UnitKind { Border, Planes, Optimize };

const char* to_string(UnitKind kind);

/// One named operating corner of the campaign matrix.
struct StressPoint {
  std::string name;  // unique within the spec; part of every cache key
  stress::StressCondition condition;
};

/// Fault-tolerance policy of the runner (docs/CAMPAIGN.md).
struct RetryPolicy {
  /// Total attempts per unit (first try included).  On a retry the Newton
  /// damping is perturbed: max_step shrinks by damping_backoff per attempt
  /// and the iteration budget doubles, so marginally non-convergent units
  /// get progressively more conservative solves.
  int max_attempts = 3;
  /// Soft per-attempt wall-clock budget in seconds; an attempt that takes
  /// longer counts as a failure (0 = unlimited).  Cooperative: the attempt
  /// runs to completion, but its result is discarded and retried, so a
  /// truncated/aborted simulation never enters the cache.
  double timeout_s = 0.0;
  /// Multiplier applied to NewtonOptions::max_step per extra attempt.
  double damping_backoff = 0.5;
};

struct CampaignSpec {
  std::string name;
  std::vector<defect::Defect> defects;
  std::vector<StressPoint> points;
  std::vector<UnitKind> analyses;
  int plane_r_points = 9;
  int plane_ops_per_point = 3;
  dram::SimSettings settings;
  RetryPolicy retry;
};

/// Parse and validate a campaign spec.  All problems are reported into
/// `report` (never thrown): JSON syntax errors as E301, schema violations
/// as E302..E304, unknown keys as W305 -- each carrying the 1-based line
/// in `text`.  Returns the spec when report->ok(), nullopt otherwise.
std::optional<CampaignSpec> parse_spec(const std::string& text,
                                       verify::VerifyReport* report);

/// Read `path` and parse_spec its contents; an unreadable file is an E301.
std::optional<CampaignSpec> load_spec(const std::string& path,
                                      verify::VerifyReport* report);

/// Serialize a spec back to schema-shaped JSON (the runner stores a copy
/// in the run directory so `campaign status|gc` are self-contained).
std::string spec_json(const CampaignSpec& spec);

}  // namespace dramstress::campaign
