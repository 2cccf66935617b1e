#include "campaign/scheduler.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <thread>

#include "campaign/spec.hpp"
#include "campaign/unit_exec.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/annotations.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace dramstress::campaign {

namespace fs = std::filesystem;
namespace util = dramstress::util;

namespace {

enum class UnitState {
  Blocked,   // dependencies unresolved (or unscheduled after an abort)
  Ready,     // in its session's ready queue
  Waiting,   // parked on another session's in-flight computation
  Running,   // owned by a worker
  Resolved,  // outcome recorded
};

/// condition_variable_any over util::Mutex; the waits release/reacquire
/// the lock in ways Clang's thread-safety analysis cannot follow, so the
/// wrappers opt out locally (callers still hold the capability).
void cv_wait(std::condition_variable_any& cv,
             util::Mutex& mu) DS_NO_THREAD_SAFETY_ANALYSIS {
  cv.wait(mu);
}

bool cv_wait_until(std::condition_variable_any& cv, util::Mutex& mu,
                   std::chrono::steady_clock::time_point deadline)
    DS_NO_THREAD_SAFETY_ANALYSIS {
  return cv.wait_until(mu, deadline) == std::cv_status::no_timeout;
}

}  // namespace

/// One submitted campaign.  Every field is guarded by the scheduler's
/// mutex (documented convention: the struct is private to this file and
/// never escapes the Impl).
struct Session {
  std::string id;
  std::string client;
  std::string run_dir;
  CampaignPlan plan;
  std::map<std::string, JournalEntry> replayed;
  std::unique_ptr<Journal> journal;
  std::vector<UnitOutcome> outcomes;
  std::vector<UnitState> state;
  std::vector<std::vector<size_t>> dependents;  // reverse dependency edges
  std::deque<size_t> ready;
  verify::VerifyReport diagnostics;
  int resolved = 0;
  int running = 0;
  int retried = 0;
  bool failed = false;    // session-level abort (journal tear, disk full)
  bool finished = false;  // terminal
  std::string error;
  std::string report_path;
  std::string failure_report_path;
};

struct Scheduler::Impl {
  dram::TechnologyParams tech;
  SharedCache* cache;
  SchedulerOptions opt;
  int workers = 0;

  mutable util::Mutex mu;
  mutable std::condition_variable_any cv_work;  // workers idle here
  mutable std::condition_variable_any cv_done;  // completion watchers
  bool stop DS_GUARDED_BY(mu) = false;
  bool accepting DS_GUARDED_BY(mu) = true;
  long dispatched DS_GUARDED_BY(mu) = 0;
  long deduplicated DS_GUARDED_BY(mu) = 0;
  std::vector<std::shared_ptr<Session>> sessions DS_GUARDED_BY(mu);
  std::vector<std::string> clients DS_GUARDED_BY(mu);  // first-seen order
  std::map<std::string, std::vector<std::shared_ptr<Session>>> by_client
      DS_GUARDED_BY(mu);
  size_t client_cursor DS_GUARDED_BY(mu) = 0;
  std::map<std::string, size_t> session_cursor DS_GUARDED_BY(mu);
  /// In-flight computations by cache key; the value is the list of
  /// (session, unit) pairs waiting for the owner's result.
  std::map<std::string, std::vector<std::pair<std::shared_ptr<Session>,
                                              size_t>>>
      inflight DS_GUARDED_BY(mu);
  std::vector<std::thread> pool;

  Impl(const dram::TechnologyParams& t, SharedCache* c, SchedulerOptions o)
      : tech(t), cache(c), opt(std::move(o)) {
    workers = opt.workers > 0 ? opt.workers : util::default_threads();
    pool.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w)
      pool.emplace_back([this] { worker_loop(); });
  }

  ~Impl() {
    {
      util::MutexLock lock(mu);
      stop = true;
    }
    cv_work.notify_all();
    for (std::thread& t : pool) t.join();
  }

  // --- fairness ---------------------------------------------------------

  struct Pick {
    std::shared_ptr<Session> session;
    size_t unit = 0;
  };

  /// Round-robin over clients, then over a client's sessions, then the
  /// oldest ready unit of the chosen session.
  std::optional<Pick> pick_locked() DS_REQUIRES(mu) {
    for (size_t a = 0; a < clients.size(); ++a) {
      const size_t ci = (client_cursor + 1 + a) % clients.size();
      const std::string& c = clients[ci];
      std::vector<std::shared_ptr<Session>>& list = by_client[c];
      for (size_t b = 0; b < list.size(); ++b) {
        size_t& cur = session_cursor[c];
        const size_t si = (cur + 1 + b) % list.size();
        const std::shared_ptr<Session>& s = list[si];
        if (s->ready.empty()) continue;
        client_cursor = ci;
        cur = si;
        Pick p;
        p.session = s;
        p.unit = s->ready.front();
        s->ready.pop_front();
        s->state[p.unit] = UnitState::Running;
        ++s->running;
        ++dispatched;
        obs::count("scheduler.dispatch");
        return p;
      }
    }
    return std::nullopt;
  }

  void worker_loop() {
    for (;;) {
      Pick p;
      {
        util::MutexLock lock(mu);
        for (;;) {
          if (stop) return;
          std::optional<Pick> got = pick_locked();
          if (got.has_value()) {
            p = std::move(*got);
            break;
          }
          cv_wait(cv_work, mu);
        }
      }
      execute(p.session, p.unit);
    }
  }

  // --- unit resolution --------------------------------------------------

  /// Record `out` for unit `i`, unblock dependents, and detect session
  /// completion.  Returns true when the caller must finalize the session
  /// (write its reports) -- done outside the lock.
  bool resolve_locked(const std::shared_ptr<Session>& s, size_t i,
                      UnitOutcome out) DS_REQUIRES(mu) {
    s->outcomes[i] = std::move(out);
    if (s->state[i] == UnitState::Running) --s->running;
    s->state[i] = UnitState::Resolved;
    ++s->resolved;
    if (!s->failed) {
      for (const size_t d : s->dependents[i]) {
        if (s->state[d] != UnitState::Blocked) continue;
        bool deps_ok = true;
        for (const size_t dep : s->plan.units[d].deps)
          deps_ok = deps_ok && s->state[dep] == UnitState::Resolved;
        if (deps_ok) {
          s->state[d] = UnitState::Ready;
          s->ready.push_back(d);
        }
      }
      if (!s->ready.empty()) cv_work.notify_all();
    }
    if (s->resolved == static_cast<int>(s->plan.units.size()) &&
        !s->finished) {
      if (s->failed) {
        s->finished = true;
        cv_done.notify_all();
        return false;
      }
      return true;  // caller writes the reports, then marks finished
    }
    maybe_finish_failed_locked(s);
    return false;
  }

  /// A failed session is terminal once no worker still runs its units.
  void maybe_finish_failed_locked(const std::shared_ptr<Session>& s)
      DS_REQUIRES(mu) {
    if (s->failed && !s->finished && s->running == 0) {
      s->finished = true;
      cv_done.notify_all();
    }
  }

  /// Hand the owner's result to every session parked on `key`: waiters
  /// re-enter the pipeline and take the cache hit (or recompute under
  /// their own retry policy if the owner quarantined).
  void release_inflight_locked(const std::string& key) DS_REQUIRES(mu) {
    const auto it = inflight.find(key);
    if (it == inflight.end()) return;
    bool woke = false;
    for (const auto& [ws, wi] : it->second) {
      if (ws->failed || ws->finished) continue;
      if (ws->state[wi] != UnitState::Waiting) continue;
      ws->state[wi] = UnitState::Ready;
      ws->ready.push_back(wi);
      woke = true;
    }
    inflight.erase(it);
    if (woke) cv_work.notify_all();
  }

  /// Session-level abort: journal tears, disk failures -- anything the
  /// per-unit retry loop does not own.  The session stops scheduling new
  /// units; its journal prefix makes a resubmit resume cleanly.
  void abort_session_locked(const std::shared_ptr<Session>& s, size_t i,
                            const std::string& why) DS_REQUIRES(mu) {
    if (!s->failed) {
      s->failed = true;
      s->error = why;
      obs::count("scheduler.session_failed");
    }
    // Park every queued unit; unresolved units stay unresolved.
    while (!s->ready.empty()) {
      s->state[s->ready.front()] = UnitState::Blocked;
      s->ready.pop_front();
    }
    if (s->state[i] == UnitState::Running) {
      --s->running;
      s->state[i] = UnitState::Blocked;
    }
    maybe_finish_failed_locked(s);
    cv_done.notify_all();
  }

  /// All units resolved: serialize the reports (campaign/unit_exec.hpp)
  /// and mark the session finished.
  void finalize_session(const std::shared_ptr<Session>& s) {
    const std::string report = report_json(s->plan, s->outcomes);
    const std::string failures = failures_json(s->plan, s->outcomes);
    const std::string report_path =
        (fs::path(s->run_dir) / "report.json").string();
    const std::string failures_path =
        (fs::path(s->run_dir) / "failures.json").string();
    write_text_file(report_path, report);
    write_text_file(failures_path, failures);
    util::MutexLock lock(mu);
    s->report_path = report_path;
    s->failure_report_path = failures_path;
    s->finished = true;
    obs::count("scheduler.session_finished");
    cv_done.notify_all();
  }

  // --- the per-unit pipeline --------------------------------------------

  /// Steps 1-2, under the lock.  A failed or skipped dependency poisons
  /// the unit, and a quarantine verdict replayed from the journal is
  /// restored without re-burning the retry budget.  An optimize unit that
  /// passes gets its border payload in `*border`: the futile check parses
  /// it outside the lock, and the computation starts from its border
  /// state.
  std::optional<UnitOutcome> gate_locked(const Session& s,
                                         const WorkUnit& u,
                                         std::string* border) const
      DS_REQUIRES(mu) {
    for (const size_t dep : u.deps) {
      const UnitStatus st = s.outcomes[dep].status;
      if (st == UnitStatus::Quarantined || st == UnitStatus::Skipped)
        return UnitOutcome{UnitStatus::Skipped, 0, "",
                           util::format("dependency %s was %s",
                                        s.plan.units[dep].id.c_str(),
                                        to_string(st))};
    }
    const auto rep = s.replayed.find(u.key.hex());
    if (rep != s.replayed.end() && rep->second.status == "quarantined")
      return UnitOutcome{UnitStatus::Quarantined, rep->second.attempts, "",
                         rep->second.error};
    if (u.kind == UnitKind::Optimize && !u.deps.empty())
      *border = s.outcomes[u.deps.front()].payload;
    return std::nullopt;
  }

  /// Count `out` by status, record it, and write the session's reports
  /// when it was the last unit.
  void finish(const std::shared_ptr<Session>& s, size_t i, UnitOutcome out) {
    switch (out.status) {
      case UnitStatus::Done: obs::count("campaign.unit_done"); break;
      case UnitStatus::Cached: obs::count("campaign.unit_cached"); break;
      case UnitStatus::Quarantined:
        obs::count("campaign.unit_quarantined");
        break;
      case UnitStatus::Skipped: obs::count("campaign.unit_skipped"); break;
    }
    bool finalize = false;
    {
      util::MutexLock lock(mu);
      finalize = resolve_locked(s, i, std::move(out));
    }
    if (finalize) finalize_session(s);
  }

  void execute(const std::shared_ptr<Session>& s, size_t i) {
    OBS_SPAN("campaign.unit");
    const WorkUnit& u = s->plan.units[i];
    const std::string key_hex = u.key.hex();
    bool owns_inflight = false;
    try {
      std::optional<UnitOutcome> early;
      std::string border;
      {
        util::MutexLock lock(mu);
        if (s->failed) {  // aborted while this unit sat in the queue
          --s->running;
          s->state[i] = UnitState::Blocked;
          maybe_finish_failed_locked(s);
          return;
        }
        early = gate_locked(*s, u, &border);
      }
      // A border that proves there is no fault makes an optimize unit
      // futile (optimize_stresses would throw by construction).
      if (!early.has_value() && !border.empty() &&
          !border_shows_fault(border))
        early = UnitOutcome{UnitStatus::Skipped, 0, "",
                            "no detectable fault at this corner (border "
                            "analysis found none), optimization is futile"};
      if (early.has_value()) {
        finish(s, i, std::move(*early));
        return;
      }

      // 3. Shared cache (memory tier, then disk): a hit short-circuits
      //    the computation without touching the simulator.  On a miss,
      //    4. in-flight dedup: if another session's worker is computing
      //    this key right now, park the unit instead of simulating the
      //    same work twice; the release re-enqueues it onto the cache hit.
      verify::VerifyReport local;
      std::optional<std::string> hit = cache->lookup(u.key, &local);
      bool journal_hit = false;
      {
        util::MutexLock lock(mu);
        s->diagnostics.merge(local);
        if (hit.has_value()) {
          journal_hit = s->replayed.count(key_hex) == 0;
        } else {
          const auto it = inflight.find(key_hex);
          if (it != inflight.end()) {
            it->second.emplace_back(s, i);
            s->state[i] = UnitState::Waiting;
            --s->running;
            ++deduplicated;
            obs::count("scheduler.unit_deduped");
            return;
          }
          inflight[key_hex];
          owns_inflight = true;
        }
      }
      if (hit.has_value()) {
        // Keep the journal a complete completion record without growing
        // it on every resume: append only if the key is new to it.
        if (journal_hit) s->journal->append({u.id, key_hex, "done", 0, ""});
        finish(s, i, UnitOutcome{UnitStatus::Cached, 0, std::move(*hit), ""});
        return;
      }

      // 5. Compute, with bounded retries (campaign/unit_exec.hpp), on a
      //    copy of the unit that carries its border payload.
      WorkUnit job = u;
      job.border_payload = std::move(border);
      UnitOutcome out =
          compute_with_retries(s->plan, job, tech, opt.fault_injector);
      if (out.status == UnitStatus::Done) cache->store(u.key, out.payload);
      s->journal->append({u.id, key_hex,
                          out.status == UnitStatus::Done ? "done"
                                                         : "quarantined",
                          out.attempts, out.error});
      // A `throw` here aborts the session at a clean journal boundary:
      // the in-process stand-in for a crash between two units.
      util::fault::hit("campaign.unit.journaled");
      {
        util::MutexLock lock(mu);
        release_inflight_locked(key_hex);
        owns_inflight = false;
        s->retried += out.attempts - 1;
      }
      finish(s, i, std::move(out));
    } catch (const std::exception& e) {
      util::MutexLock lock(mu);
      if (owns_inflight) release_inflight_locked(key_hex);
      abort_session_locked(s, i, e.what());
    }
  }

  // --- queries ----------------------------------------------------------

  std::shared_ptr<Session> find_locked(const std::string& id) const
      DS_REQUIRES(mu) {
    for (const std::shared_ptr<Session>& s : sessions)
      if (s->id == id) return s;
    return nullptr;
  }

  SessionStatus status_locked(const std::shared_ptr<Session>& s) const
      DS_REQUIRES(mu) {
    SessionStatus st;
    st.id = s->id;
    st.client = s->client;
    st.campaign = s->plan.spec.name;
    st.run_dir = s->run_dir;
    st.error = s->error;
    st.report_path = s->report_path;
    st.failure_report_path = s->failure_report_path;
    st.total = static_cast<int>(s->plan.units.size());
    st.retried = s->retried;
    st.finished = s->finished;
    st.state = s->finished ? (s->failed ? "failed" : "finished")
                           : "running";
    for (size_t i = 0; i < s->plan.units.size(); ++i) {
      if (s->state[i] != UnitState::Resolved) {
        ++st.pending;
        continue;
      }
      switch (s->outcomes[i].status) {
        case UnitStatus::Done: ++st.done; break;
        case UnitStatus::Cached: ++st.cached; break;
        case UnitStatus::Quarantined: ++st.quarantined; break;
        case UnitStatus::Skipped: ++st.skipped; break;
      }
    }
    return st;
  }
};

Scheduler::Scheduler(const dram::TechnologyParams& tech, SharedCache* cache,
                     SchedulerOptions opt)
    : impl_(std::make_unique<Impl>(tech, cache, std::move(opt))) {}

Scheduler::~Scheduler() = default;

SessionStatus Scheduler::submit(const std::string& client,
                                CampaignPlan plan,
                                const std::string& run_dir,
                                const std::string& id) {
  // Build the session outside the lock: directory creation, journal
  // replay and the spec copy are all I/O.  A racing duplicate submit
  // builds a throwaway twin; registration below is what decides.
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec)
    throw ModelError("campaign: cannot create " + run_dir + ": " +
                     ec.message());
  auto s = std::make_shared<Session>();
  s->id = id;
  s->client = client;
  s->run_dir = run_dir;
  s->plan = std::move(plan);
  const std::string journal_path =
      (fs::path(run_dir) / "journal.jsonl").string();
  // An existing journal is always resumed: the daemon owns its run
  // directories, and `campaign run` (runner.cpp) applies its --resume
  // gate to *user-picked* directories before submitting.
  if (fs::exists(journal_path))
    s->replayed = Journal::replay(journal_path, &s->diagnostics);
  s->journal = std::make_unique<Journal>(journal_path);
  write_text_file((fs::path(run_dir) / "spec.json").string(),
                  spec_json(s->plan.spec));
  const size_t n = s->plan.units.size();
  s->outcomes.assign(n, UnitOutcome{});
  s->state.assign(n, UnitState::Blocked);
  s->dependents.assign(n, {});
  for (const WorkUnit& u : s->plan.units)
    for (const size_t dep : u.deps) s->dependents[dep].push_back(u.index);

  util::MutexLock lock(impl_->mu);
  if (!impl_->accepting)
    throw ModelError("service is draining; no new campaigns are accepted");
  if (const std::shared_ptr<Session> existing = impl_->find_locked(id)) {
    // Idempotent resubmit.  A live or successfully finished session is
    // authoritative; a failed one is replaced by the fresh session, which
    // resumes from the journal the failed one left behind.
    if (!(existing->finished && existing->failed))
      return impl_->status_locked(existing);
    for (std::shared_ptr<Session>& slot : impl_->sessions)
      if (slot->id == id) slot = s;
    for (std::shared_ptr<Session>& slot : impl_->by_client[client])
      if (slot->id == id) slot = s;
  } else {
    impl_->sessions.push_back(s);
    if (impl_->by_client.find(client) == impl_->by_client.end())
      impl_->clients.push_back(client);
    impl_->by_client[client].push_back(s);
  }
  for (const WorkUnit& u : s->plan.units) {
    if (u.deps.empty()) {
      s->state[u.index] = UnitState::Ready;
      s->ready.push_back(u.index);
    }
  }
  obs::count("scheduler.session_submitted");
  // An empty plan is finished on arrival (expand() never produces one,
  // but the invariant "finished sessions have reports" must hold).
  if (n == 0) {
    s->finished = true;
    impl_->cv_done.notify_all();
  }
  impl_->cv_work.notify_all();
  return impl_->status_locked(s);
}

std::optional<SessionStatus> Scheduler::session(const std::string& id) const {
  util::MutexLock lock(impl_->mu);
  const std::shared_ptr<Session> s = impl_->find_locked(id);
  if (s == nullptr) return std::nullopt;
  return impl_->status_locked(s);
}

SchedulerStatus Scheduler::status() const {
  util::MutexLock lock(impl_->mu);
  SchedulerStatus st;
  st.workers = impl_->workers;
  st.accepting = impl_->accepting;
  st.dispatched = impl_->dispatched;
  st.deduplicated = impl_->deduplicated;
  st.sessions.reserve(impl_->sessions.size());
  for (const std::shared_ptr<Session>& s : impl_->sessions)
    st.sessions.push_back(impl_->status_locked(s));
  return st;
}

std::optional<SessionOutcomes> Scheduler::outcomes(
    const std::string& id) const {
  util::MutexLock lock(impl_->mu);
  const std::shared_ptr<Session> s = impl_->find_locked(id);
  if (s == nullptr) return std::nullopt;
  return SessionOutcomes{s->outcomes, s->diagnostics};
}

bool Scheduler::wait_finished(const std::string& id,
                              double timeout_s) const {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s > 0 ? timeout_s : 0));
  util::MutexLock lock(impl_->mu);
  for (;;) {
    const std::shared_ptr<Session> s = impl_->find_locked(id);
    if (s == nullptr) return false;
    if (s->finished) return true;
    if (timeout_s > 0) {
      if (!cv_wait_until(impl_->cv_done, impl_->mu, deadline)) {
        const std::shared_ptr<Session> again = impl_->find_locked(id);
        return again != nullptr && again->finished;
      }
    } else {
      cv_wait(impl_->cv_done, impl_->mu);
    }
  }
}

void Scheduler::drain() {
  {
    util::MutexLock lock(impl_->mu);
    impl_->accepting = false;
    for (;;) {
      bool all_done = true;
      for (const std::shared_ptr<Session>& s : impl_->sessions)
        all_done = all_done && s->finished;
      if (all_done) break;
      cv_wait(impl_->cv_done, impl_->mu);
    }
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (std::thread& t : impl_->pool) t.join();
  impl_->pool.clear();
}

}  // namespace dramstress::campaign
