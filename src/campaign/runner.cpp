#include "campaign/runner.hpp"

#include <filesystem>

#include "campaign/cache_index.hpp"
#include "campaign/scheduler.hpp"
#include "obs/span.hpp"

namespace dramstress::campaign {

namespace fs = std::filesystem;

CampaignRunner::CampaignRunner(CampaignPlan plan,
                               const dram::TechnologyParams& tech,
                               std::string run_dir, std::string cache_dir,
                               RunnerOptions opt)
    : plan_(std::move(plan)),
      tech_(tech),
      run_dir_(std::move(run_dir)),
      cache_dir_(std::move(cache_dir)),
      opt_(std::move(opt)) {}

CampaignResult CampaignRunner::run() {
  OBS_SPAN("campaign.run");
  if (!opt_.resume && fs::exists(fs::path(run_dir_) / "journal.jsonl"))
    throw ModelError(
        "campaign: " + run_dir_ +
        " already holds a journal; pass --resume to continue the "
        "interrupted run or pick a fresh --out directory");

  SharedCache cache(cache_dir_);
  SchedulerOptions so;
  so.workers = opt_.threads;
  so.fault_injector = opt_.fault_injector;
  Scheduler scheduler(tech_, &cache, std::move(so));
  scheduler.submit("campaign-run", plan_, run_dir_, run_dir_);
  scheduler.wait_finished(run_dir_, 0);
  const SessionStatus st = scheduler.session(run_dir_).value();
  if (st.state == "failed") throw ModelError(st.error);

  SessionOutcomes session = scheduler.outcomes(run_dir_).value();
  CampaignResult result;
  result.outcomes = std::move(session.outcomes);
  result.diagnostics = std::move(session.diagnostics);
  result.done = st.done;
  result.cached = st.cached;
  result.retried = st.retried;
  result.quarantined = st.quarantined;
  result.skipped = st.skipped;
  result.report_path = st.report_path;
  result.failure_report_path = st.failure_report_path;
  return result;
}

}  // namespace dramstress::campaign
