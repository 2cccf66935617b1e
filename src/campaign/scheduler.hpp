// Campaign scheduler: the one executor of campaign work-unit DAGs.  Many
// concurrent campaign sessions are multiplexed over one shared worker
// pool, backed by the shared result cache.
//
// Both front ends run on it.  `dramstress serve` (src/service) keeps one
// Scheduler for the daemon's lifetime and accepts sessions from many
// clients; `dramstress campaign run` (runner.hpp) starts one in-process
// for a single session and differs from the daemon only in its --resume
// gate.  Idle workers *steal work across campaigns*: any idle worker takes
// the next ready unit of whichever session fairness points at, so one
// client's 3-unit campaign is not starved behind another's 300-unit
// matrix, and a unit is ready as soon as its own dependencies resolve.
//
// Fairness.  Dispatch is round-robin over *clients* (first-seen order),
// then round-robin over a client's sessions, then lowest-index ready unit
// of that session.  Every client with runnable work therefore gets an
// equal share of the pool regardless of how many campaigns it submitted.
//
// Shared results.  Every unit consults the SharedCache first (memory tier
// then disk -- docs/SERVICE.md), and units *in flight* are deduplicated
// across sessions: when two campaigns need the same cache key, the second
// waits for the first worker's result instead of simulating it again,
// then takes the cache hit.  A quarantined computation is never shared --
// each waiting session retries it under its own retry policy.
//
// Determinism.  The per-unit pipeline (dependency gates, futile-optimize
// skips, quarantine restore from the journal, bounded retries) lives here
// once, and the unit computation and report serialization are
// campaign/unit_exec.hpp, so a session's report.json is byte-identical at
// any worker count, across kill-and-resume, whether `serve` or
// `campaign run` produced it.  A run directory that already holds a
// journal is always resumed -- resubmitting a spec after a crash (or
// while it is running: submits are idempotent per session id) continues
// instead of refusing.
//
// All session state is guarded by the scheduler's single mutex; sessions
// are internal to the implementation and queried through the status
// snapshots below.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/cache_index.hpp"
#include "campaign/plan.hpp"
#include "campaign/unit_exec.hpp"
#include "dram/technology.hpp"
#include "verify/diagnostic.hpp"

namespace dramstress::campaign {

/// Point-in-time view of one campaign session.
struct SessionStatus {
  std::string id;        // stable session id (the service derives it from
                         // client + spec content, so resubmits land here)
  std::string client;    // submitting client name
  std::string campaign;  // spec name
  std::string run_dir;
  std::string state;  // "running" | "finished" | "failed"
  std::string error;  // session-level failure reason ("failed" only)
  std::string report_path;          // set once finished
  std::string failure_report_path;  // set once finished
  int total = 0;
  int done = 0;         // computed this run
  int cached = 0;       // served from the shared cache
  int quarantined = 0;
  int skipped = 0;
  int retried = 0;      // extra attempts across all units
  int pending = 0;      // not yet resolved (includes running/waiting)
  bool finished = false;  // terminal (finished or failed)
};

/// What one session produced beyond its status counters: the per-unit
/// outcomes and the journal/cache diagnostics (E310).
struct SessionOutcomes {
  std::vector<UnitOutcome> outcomes;  // indexed like plan.units
  verify::VerifyReport diagnostics;
};

/// Point-in-time view of the whole scheduler.
struct SchedulerStatus {
  int workers = 0;
  bool accepting = true;
  long dispatched = 0;  // units handed to a worker since startup
  long deduplicated = 0;  // units that waited on another session's compute
  std::vector<SessionStatus> sessions;
};

struct SchedulerOptions {
  /// Worker threads of the shared pool; 0 = util::default_threads().
  int workers = 0;
  /// Test hook forwarded to compute_with_retries: invoked before each
  /// computation attempt; throwing simulates that attempt failing.
  std::function<void(const WorkUnit&, int attempt)> fault_injector;
};

class Scheduler {
public:
  /// Workers start immediately.  `cache` is shared, not owned, and must
  /// outlive the scheduler.
  Scheduler(const dram::TechnologyParams& tech, SharedCache* cache,
            SchedulerOptions opt = {});
  /// Stops the pool without draining (pending sessions are abandoned --
  /// their journals make resubmission resume cleanly).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Register a session and make its ready units available to the pool.
  /// Idempotent per `id`: a live or successfully finished session is
  /// returned as-is; a failed one is replaced by a fresh session that
  /// resumes from its journal.  Throws ModelError once draining started.
  SessionStatus submit(const std::string& client, CampaignPlan plan,
                       const std::string& run_dir, const std::string& id);

  /// Status of one session / all sessions (submission order).
  std::optional<SessionStatus> session(const std::string& id) const;
  SchedulerStatus status() const;

  /// Outcomes and diagnostics of session `id` (nullopt for unknown ids).
  /// Kept out of SessionStatus, which every status poll copies.
  std::optional<SessionOutcomes> outcomes(const std::string& id) const;

  /// Block until session `id` reaches a terminal state; false on timeout
  /// or unknown id (timeout_s <= 0 waits forever).
  bool wait_finished(const std::string& id, double timeout_s) const;

  /// Graceful drain: refuse new submits, wait until every session is
  /// terminal, then stop and join the workers.  Idempotent.
  void drain();

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dramstress::campaign
