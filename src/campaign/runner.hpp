// `dramstress campaign run`: one campaign executed as a single session of
// the campaign Scheduler (scheduler.hpp), in-process.
//
// There is one executor.  The runner builds a SharedCache over the cache
// directory, starts a Scheduler with `threads` workers, submits the plan
// once and waits for it; the per-unit pipeline (dependency gates,
// futile-optimize skips, quarantine restore, cache short-circuit, bounded
// retries with Newton-damping continuation, quarantine, journaling) is the
// scheduler's.  A unit starts as soon as its own dependencies resolve, so
// an optimize unit never waits for unrelated border units.
//
// The one difference from the daemon is the --resume gate: the daemon
// owns its run directories and always resumes an existing journal, while
// a user-picked `--out` directory that already holds a journal is refused
// unless `resume` is set.
//
// Determinism: report.json contains only inputs-determined content (unit
// ids, payloads, quarantine reasons) -- no timestamps, no attempt counts,
// no thread ids -- and every payload round-trips through the same JSON
// writer whether it was computed or cache-loaded.  A resumed run's report
// is therefore byte-identical to the uninterrupted one, and so is a
// 4-thread run to a 1-thread run (quarantine timing aside: the wall-clock
// timeout only fires on units that are already failing).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/unit_exec.hpp"
#include "dram/technology.hpp"
#include "util/error.hpp"
#include "verify/diagnostic.hpp"

namespace dramstress::campaign {

struct RunnerOptions {
  /// Scheduler workers; 0 = util::default_threads().  Units run their
  /// inner sweeps serially, so this is the only parallelism level -- no
  /// oversubscription.
  int threads = 0;
  /// Replay an existing journal instead of refusing to reuse the run
  /// directory.
  bool resume = false;
  /// Test hook: invoked before each computation attempt; throwing
  /// simulates that attempt failing (non-convergence, hang, ...).
  std::function<void(const WorkUnit&, int attempt)> fault_injector;
};

struct CampaignResult {
  std::vector<UnitOutcome> outcomes;  // indexed like plan.units
  int done = 0;
  int cached = 0;
  int retried = 0;  // total extra attempts across all units
  int quarantined = 0;
  int skipped = 0;

  /// Diagnostics collected while reading cache/journal (E310 corruption
  /// warnings); spec diagnostics are reported at parse time.
  verify::VerifyReport diagnostics;

  std::string report_path;
  std::string failure_report_path;
};

class CampaignRunner {
public:
  /// `run_dir` holds the journal and the reports; `cache_dir` the shared
  /// result cache (several campaigns and runs may share one).
  CampaignRunner(CampaignPlan plan, const dram::TechnologyParams& tech,
                 std::string run_dir, std::string cache_dir,
                 RunnerOptions opt);

  /// Execute the campaign.  Throws ModelError when the run directory has
  /// a journal and resume is off, and when the session fails (a torn
  /// journal, a full disk, an armed `campaign.unit.journaled` fault).
  /// Unit failures never throw -- they quarantine.
  CampaignResult run();

private:
  CampaignPlan plan_;
  dram::TechnologyParams tech_;
  std::string run_dir_;
  std::string cache_dir_;
  RunnerOptions opt_;
};

}  // namespace dramstress::campaign
