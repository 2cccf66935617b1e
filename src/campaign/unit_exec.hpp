// Shared per-unit computation and report layer of the campaign subsystem.
//
// One executor drives campaign work-unit DAGs: the Scheduler
// (scheduler.hpp), which runs the daemon's sessions (`dramstress serve`)
// and, as a single in-process session, `dramstress campaign run`
// (runner.hpp).  Its headline contract: report.json comes out
// byte-identical whichever front end produced it, at any thread/worker
// count, across kill-and-resume.  Everything the bytes depend on -- the
// unit computation, the retry/continuation loop, the payload wrapper and
// the report serialization -- has exactly one implementation, and this
// header is it.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "dram/technology.hpp"
#include "util/json.hpp"
#include "verify/diagnostic.hpp"

namespace dramstress::campaign {

enum class UnitStatus {
  Done,         // computed this run
  Cached,       // served from the result cache
  Quarantined,  // exhausted retries / timed out; in the failure report
  Skipped,      // a dependency failed or made the unit provably futile
};

const char* to_string(UnitStatus status);

struct UnitOutcome {
  UnitStatus status = UnitStatus::Done;
  int attempts = 0;     // computation attempts this run (0 when cached)
  std::string payload;  // JSON payload (empty when quarantined/skipped)
  std::string error;    // quarantine reason / skip reason
};

/// "o3" / "sg.comp": the defect label used by reports and status output.
std::string defect_label(const defect::Defect& d);

/// Compute one unit on a fresh column.  Returns the JSON payload:
/// {"transients": N, "result": {...analysis output...}} -- the
/// full-transient count is part of the cached record so a later resume
/// reports the same cost accounting as the run that computed it.  A border
/// payload adds "border_state" (analysis::append_border_state), which
/// reports leave out; an optimize unit starts from the one in
/// u.border_payload, so its transients exclude the nominal analysis.
/// Throws (ConvergenceError and friends) on failure -- compute_with_retries
/// is the fault-tolerance layer around this.
std::string compute_unit_payload(const CampaignPlan& plan, const WorkUnit& u,
                                 const dram::TechnologyParams& tech,
                                 const dram::SimSettings& settings);

/// The analysis object inside a unit payload (payloads wrap it with the
/// transient count; tolerate the bare pre-wrapper shape too).
const util::json::Value* payload_result(const util::json::Value& v);

/// Does a border payload show a detectable fault anywhere in the range?
/// (br present, or the test fails across the whole sweep.)
bool border_shows_fault(const std::string& payload);

/// Bounded-retry computation of one unit: each retry perturbs the Newton
/// damping (max_step *= damping_backoff) and relaxes the iteration budget,
/// the classic continuation trick for a non-converging operating point.
/// A retried optimize unit starts from the same border state as its first
/// attempt: only the optimizer's own runs see the backed-off settings.
/// On success the outcome is Done with the payload; on exhausted attempts
/// or a blown per-unit timeout it is Quarantined with the last error.
/// `fault_injector` (may be empty) runs before every attempt; a throw
/// counts as that attempt failing.  util::fault::Injected from deeper
/// layers that must abort the whole run (journal tears, kills) is NOT
/// absorbed here -- it propagates only from hooks outside the attempt
/// body, so the retry loop stays a pure computation concern.
UnitOutcome compute_with_retries(
    const CampaignPlan& plan, const WorkUnit& u,
    const dram::TechnologyParams& tech,
    const std::function<void(const WorkUnit&, int attempt)>& fault_injector);

/// Serialize report.json: inputs-determined content only (unit ids,
/// payloads, quarantine reasons -- no timestamps, no attempt counts, no
/// thread ids), every payload round-tripped through the same JSON writer
/// whether computed or cache-loaded.  Byte-identical across executors,
/// resumes and thread counts.
std::string report_json(const CampaignPlan& plan,
                        const std::vector<UnitOutcome>& outcomes);

/// Serialize failures.json (quarantined units with attempts and reasons).
std::string failures_json(const CampaignPlan& plan,
                          const std::vector<UnitOutcome>& outcomes);

/// Write `text` plus a trailing newline to `path` (truncating); throws
/// ModelError when the file cannot be written.
void write_text_file(const std::string& path, const std::string& text);

}  // namespace dramstress::campaign
