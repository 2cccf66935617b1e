// Campaign subsystem (src/campaign): spec round-trips, plan expansion and
// cache-key semantics, the content-addressed cache and journal, and the
// runner's crash/resume, incrementality, retry/quarantine and determinism
// contracts.  Simulation-heavy cases use the smallest real campaigns
// (border units of one or two defects); fault paths use the injector hook
// so they cost no simulation time at all.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/runner.hpp"
#include "dram/column.hpp"
#include "dram/column_sim.hpp"
#include "dram/technology.hpp"
#include "obs/metrics.hpp"
#include "stress/optimizer.hpp"
#include "test_dirs.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace dramstress {
namespace {

namespace fs = std::filesystem;
using campaign::CampaignPlan;
using campaign::CampaignResult;
using campaign::CampaignRunner;
using campaign::CampaignSpec;
using campaign::JournalEntry;
using campaign::RunnerOptions;
using campaign::UnitKind;
using campaign::UnitStatus;
using campaign::WorkUnit;
using verify::Code;
using verify::VerifyReport;

/// Parse a spec that must be valid.
CampaignSpec spec_of(const std::string& text) {
  VerifyReport report;
  std::optional<CampaignSpec> spec = campaign::parse_spec(text, &report);
  EXPECT_TRUE(spec.has_value()) << report.str();
  return spec.value();
}

CampaignPlan plan_of(const CampaignSpec& spec) {
  dram::DramColumn column(dram::default_technology());
  return campaign::expand(spec, column);
}

using test::fresh_dir;

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream text;
  text << f.rdbuf();
  return text.str();
}

int count_lines(const std::string& path) {
  std::ifstream f(path);
  int n = 0;
  std::string line;
  while (std::getline(f, line))
    if (!line.empty()) ++n;
  return n;
}

/// The cheapest real campaign: one border unit.
const char* kOneUnitSpec = R"({
  "name": "one",
  "defects": ["o3"],
  "points": [{"name": "nominal", "vdd": 2.4, "temp_c": 27.0,
              "tcyc": 60e-9, "duty": 0.5}]
})";

/// Two independent border units (two defects, one corner).
const char* kTwoUnitSpec = R"({
  "name": "two",
  "defects": ["o3", "sg"],
  "points": [{"name": "nominal", "vdd": 2.4, "temp_c": 27.0,
              "tcyc": 60e-9, "duty": 0.5}]
})";

CampaignResult run_campaign(const CampaignSpec& spec, const std::string& out,
                            const std::string& cache,
                            RunnerOptions opt = {}) {
  CampaignRunner runner(plan_of(spec), dram::default_technology(), out,
                        cache, std::move(opt));
  return runner.run();
}

// --- spec / plan -------------------------------------------------------

TEST(CampaignSpec, RoundTripsThroughItsOwnJson) {
  const CampaignSpec spec = spec_of(kTwoUnitSpec);
  const std::string once = campaign::spec_json(spec);
  const CampaignSpec again = spec_of(once);
  EXPECT_EQ(once, campaign::spec_json(again));
}

TEST(CampaignSpec, RetiredAdaptiveTrueLoadsAsANoOp) {
  // Run directories written before fixed-step column simulation was
  // removed carry "adaptive": true; they must still load, plan the same
  // unit keys, and no longer write the key back.
  const CampaignSpec plain = spec_of(kOneUnitSpec);
  VerifyReport report;
  const std::optional<CampaignSpec> legacy = campaign::parse_spec(R"({
    "name": "one",
    "defects": ["o3"],
    "points": [{"name": "nominal", "vdd": 2.4, "temp_c": 27.0,
                "tcyc": 60e-9, "duty": 0.5}],
    "settings": {"adaptive": true}
  })", &report);
  ASSERT_TRUE(legacy.has_value()) << report.str();
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_EQ(campaign::spec_json(*legacy), campaign::spec_json(plain));
  EXPECT_EQ(campaign::spec_json(plain).find("adaptive"), std::string::npos);
  EXPECT_EQ(plan_of(*legacy).units[0].key.hash,
            plan_of(plain).units[0].key.hash);
}

TEST(CampaignSpec, RetiredAdaptiveFalseIsRejected) {
  // "adaptive": false asked for the deleted fixed-step engine: silently
  // running adaptive instead would betray the spec, so it is an error
  // that names the removal (not the W305 an unknown key would get).
  VerifyReport report;
  const std::optional<CampaignSpec> spec = campaign::parse_spec(R"({
    "name": "one",
    "defects": ["o3"],
    "points": [{"name": "nominal"}],
    "settings": {"adaptive": false}
  })", &report);
  EXPECT_FALSE(spec.has_value());
  ASSERT_TRUE(report.has(Code::SpecBadValue)) << report.str();
  EXPECT_NE(report.find(Code::SpecBadValue)->message.find("removed"),
            std::string::npos)
      << report.str();
  EXPECT_FALSE(report.has(Code::SpecUnknownKey)) << report.str();
}

TEST(CampaignPlanTest, ExpandsMatrixWithDependencies) {
  const CampaignSpec spec = spec_of(R"({
    "name": "matrix",
    "defects": ["o3", "sg/comp"],
    "points": [
      {"name": "a", "vdd": 2.4, "temp_c": 27.0, "tcyc": 60e-9, "duty": 0.5},
      {"name": "b", "vdd": 2.1, "temp_c": 87.0, "tcyc": 55e-9, "duty": 0.5}
    ],
    "analyses": ["planes", "optimize"]
  })");
  const CampaignPlan plan = plan_of(spec);
  // Optimize pulls in an implicit border per cell: 3 units x 2 defects x 2
  // points.
  ASSERT_EQ(plan.units.size(), 12u);
  std::set<std::string> ids;
  std::set<uint64_t> keys;
  for (const WorkUnit& u : plan.units) {
    ids.insert(u.id);
    keys.insert(u.key.hash);
    if (u.kind == UnitKind::Optimize) {
      ASSERT_EQ(u.deps.size(), 1u);
      EXPECT_EQ(plan.units[u.deps[0]].kind, UnitKind::Border);
      EXPECT_EQ(plan.units[u.deps[0]].defect_index, u.defect_index);
      EXPECT_EQ(plan.units[u.deps[0]].point_index, u.point_index);
    } else {
      EXPECT_TRUE(u.deps.empty());
    }
  }
  EXPECT_EQ(ids.size(), 12u) << "unit ids must be unique";
  EXPECT_EQ(keys.size(), 12u) << "cache keys must be unique";
  EXPECT_EQ(plan.units[0].id, "border/O3@a");
}

TEST(CampaignPlanTest, KeysAreStableAndInputSensitive) {
  const CampaignSpec spec = spec_of(kOneUnitSpec);
  const CampaignPlan a = plan_of(spec);
  const CampaignPlan b = plan_of(spec);
  ASSERT_EQ(a.units.size(), 1u);
  // Same inputs -> same key (the whole premise of resumability).
  EXPECT_EQ(a.units[0].key.hash, b.units[0].key.hash);

  // A solver-setting change invalidates.
  CampaignSpec tweaked = spec;
  tweaked.settings.lte_tol *= 2.0;
  EXPECT_NE(plan_of(tweaked).units[0].key.hash, a.units[0].key.hash);

  // A corner-value change invalidates...
  tweaked = spec;
  tweaked.points[0].condition.vdd = 2.1;
  EXPECT_NE(plan_of(tweaked).units[0].key.hash, a.units[0].key.hash);

  // ...but renaming the point does not (names are labels, not inputs).
  tweaked = spec;
  tweaked.points[0].name = "renamed";
  EXPECT_EQ(plan_of(tweaked).units[0].key.hash, a.units[0].key.hash);

  // The retry policy is not key material: only successes are cached.
  tweaked = spec;
  tweaked.retry.max_attempts = 9;
  EXPECT_EQ(plan_of(tweaked).units[0].key.hash, a.units[0].key.hash);
}

// --- cache / journal (no simulation) -----------------------------------

TEST(ResultCacheTest, StoresLoadsAndSweeps) {
  campaign::ResultCache cache(fresh_dir("cache"));
  campaign::KeyHasher h;
  const campaign::CacheKey key = h.feed(std::string("unit")).key();
  EXPECT_FALSE(cache.contains(key));
  VerifyReport report;
  EXPECT_FALSE(cache.load(key, &report).has_value());

  cache.store(key, R"({"br": 1.5, "ok": true})");
  EXPECT_TRUE(cache.contains(key));
  const std::optional<std::string> payload = cache.load(key, &report);
  ASSERT_TRUE(payload.has_value());
  const util::json::Value v = util::json::parse(*payload);
  EXPECT_DOUBLE_EQ(v.find("br")->number, 1.5);
  EXPECT_TRUE(report.clean());

  // Sweep with an empty live set removes the object.
  EXPECT_EQ(cache.sweep({}), 1);
  EXPECT_FALSE(cache.contains(key));
}

TEST(ResultCacheTest, CorruptObjectIsAMissWithE310) {
  campaign::ResultCache cache(fresh_dir("corrupt"));
  campaign::KeyHasher h;
  const campaign::CacheKey key = h.feed(std::string("x")).key();
  cache.store(key, R"({"a": 1})");
  {
    std::ofstream f(cache.object_path(key), std::ios::trunc);
    f << "{ not json";
  }
  VerifyReport report;
  EXPECT_FALSE(cache.load(key, &report).has_value());
  EXPECT_TRUE(report.has(Code::CacheCorrupt));
  EXPECT_EQ(report.errors(), 0) << "corruption is a warning, not an error";

  // Wrong wrapper (valid JSON, missing fields) is also a miss.
  {
    std::ofstream f(cache.object_path(key), std::ios::trunc);
    f << R"({"payload": {}})";
  }
  VerifyReport report2;
  EXPECT_FALSE(cache.load(key, &report2).has_value());
  EXPECT_TRUE(report2.has(Code::CacheCorrupt));
}

TEST(JournalTest, ReplayToleratesTornFinalLine) {
  const std::string dir = fresh_dir("journal");
  fs::create_directories(dir);
  const std::string path = dir + "/journal.jsonl";
  campaign::Journal journal(path);
  journal.append({"border/O3@a", "00000000000000aa", "done", 1, ""});
  journal.append({"border/Sg@a", "00000000000000bb", "quarantined", 3,
                  "injected divergence"});
  {
    // Simulate a SIGKILL mid-append: a torn, unterminated record.
    std::ofstream f(path, std::ios::app);
    f << "{  \"unit\": \"border/B1@a\",  \"key\": \"00";
  }
  VerifyReport report;
  const std::map<std::string, JournalEntry> entries =
      campaign::Journal::replay(path, &report);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.at("00000000000000aa").status, "done");
  EXPECT_EQ(entries.at("00000000000000bb").status, "quarantined");
  EXPECT_EQ(entries.at("00000000000000bb").attempts, 3);
  EXPECT_EQ(entries.at("00000000000000bb").error, "injected divergence");
  EXPECT_TRUE(report.has(Code::CacheCorrupt));
  EXPECT_EQ(report.errors(), 0);
}

TEST(JournalTest, MissingFileReplaysEmpty) {
  VerifyReport report;
  EXPECT_TRUE(campaign::Journal::replay(
                  fresh_dir("nojournal") + "/journal.jsonl", &report)
                  .empty());
  EXPECT_TRUE(report.clean());
}

// --- runner: fault paths (injector, no simulation) ---------------------

TEST(CampaignRunnerTest, QuarantinesPersistentFailureWithoutAborting) {
  CampaignSpec spec = spec_of(kOneUnitSpec);
  spec.retry.max_attempts = 3;
  RunnerOptions opt;
  opt.fault_injector = [](const WorkUnit&, int) {
    throw ConvergenceError("injected divergence");
  };
  obs::reset_metrics();
  const std::string out = fresh_dir("quarantine");
  const CampaignResult r =
      run_campaign(spec, out, fresh_dir("quarantine_cache"), opt);

  EXPECT_EQ(r.quarantined, 1);
  EXPECT_EQ(r.done, 0);
  EXPECT_EQ(r.retried, 2);
  ASSERT_EQ(r.outcomes.size(), 1u);
  EXPECT_EQ(r.outcomes[0].status, UnitStatus::Quarantined);
  EXPECT_EQ(r.outcomes[0].attempts, 3);
  EXPECT_NE(r.outcomes[0].error.find("injected divergence"),
            std::string::npos);

  const obs::MetricsSnapshot m = obs::metrics_snapshot();
  EXPECT_EQ(m.counter("campaign.unit_quarantined"), 1);
  EXPECT_EQ(m.counter("campaign.unit_retried"), 2);
  EXPECT_EQ(m.counter("campaign.unit_done"), 0);

  // The failure report names the unit and the reason.
  const util::json::Value failures =
      util::json::parse(read_file(r.failure_report_path));
  ASSERT_EQ(failures.find("failures")->array.size(), 1u);
  const util::json::Value& f = failures.find("failures")->array[0];
  EXPECT_EQ(f.find("id")->string, "border/O3@nominal");
  EXPECT_EQ(static_cast<int>(f.find("attempts")->number), 3);

  // The main report records the quarantine, with no payload.
  const util::json::Value report =
      util::json::parse(read_file(r.report_path));
  const util::json::Value& unit = report.find("units")->array[0];
  EXPECT_EQ(unit.find("status")->string, "quarantined");
  EXPECT_EQ(unit.find("result"), nullptr);
}

TEST(CampaignRunnerTest, QuarantineIsRestoredOnResumeWithoutReburning) {
  CampaignSpec spec = spec_of(kOneUnitSpec);
  spec.retry.max_attempts = 2;
  RunnerOptions opt;
  int calls = 0;
  opt.fault_injector = [&calls](const WorkUnit&, int) {
    ++calls;
    throw ConvergenceError("injected divergence");
  };
  const std::string out = fresh_dir("requar");
  const std::string cache = fresh_dir("requar_cache");
  run_campaign(spec, out, cache, opt);
  EXPECT_EQ(calls, 2);

  RunnerOptions resume = opt;
  resume.resume = true;
  const CampaignResult r = run_campaign(spec, out, cache, resume);
  EXPECT_EQ(calls, 2) << "replayed quarantine must not re-run the unit";
  EXPECT_EQ(r.quarantined, 1);
  EXPECT_EQ(r.outcomes[0].attempts, 2);
  EXPECT_NE(r.outcomes[0].error.find("injected divergence"),
            std::string::npos);
}

TEST(CampaignRunnerTest, TimeoutStopsRetryingAndQuarantines) {
  CampaignSpec spec = spec_of(kOneUnitSpec);
  spec.retry.max_attempts = 5;
  spec.retry.timeout_s = 1e-9;  // any failed attempt exceeds this
  RunnerOptions opt;
  opt.fault_injector = [](const WorkUnit&, int) {
    throw ConvergenceError("injected divergence");
  };
  const CampaignResult r = run_campaign(spec, fresh_dir("timeout"),
                                        fresh_dir("timeout_cache"), opt);
  EXPECT_EQ(r.quarantined, 1);
  EXPECT_EQ(r.outcomes[0].attempts, 1) << "timeout must cut the retry loop";
  EXPECT_NE(r.outcomes[0].error.find("timeout"), std::string::npos);
}

TEST(CampaignRunnerTest, SkipsUnitsWhoseDependencyWasQuarantined) {
  CampaignSpec spec = spec_of(R"({
    "name": "dag",
    "defects": ["o3"],
    "points": [{"name": "nominal", "vdd": 2.4, "temp_c": 27.0,
                "tcyc": 60e-9, "duty": 0.5}],
    "analyses": ["optimize"],
    "retry": {"max_attempts": 1}
  })");
  RunnerOptions opt;
  opt.fault_injector = [](const WorkUnit&, int) {
    throw ConvergenceError("injected divergence");
  };
  const CampaignResult r = run_campaign(spec, fresh_dir("dag"),
                                        fresh_dir("dag_cache"), opt);
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_EQ(r.outcomes[0].status, UnitStatus::Quarantined);
  EXPECT_EQ(r.outcomes[1].status, UnitStatus::Skipped);
  EXPECT_NE(r.outcomes[1].error.find("border/O3@nominal"),
            std::string::npos);
  EXPECT_EQ(r.skipped, 1);
}

TEST(CampaignRunnerTest, SkipsFutileOptimizeWhenBorderShowsNoFault) {
  const CampaignSpec spec = spec_of(R"({
    "name": "futile",
    "defects": ["o3"],
    "points": [{"name": "nominal", "vdd": 2.4, "temp_c": 27.0,
                "tcyc": 60e-9, "duty": 0.5}],
    "analyses": ["optimize"]
  })");
  const CampaignPlan plan = plan_of(spec);
  ASSERT_EQ(plan.units[0].kind, UnitKind::Border);
  // Seed the cache with a fault-free border verdict under the real key:
  // the runner must serve it (cached) and then skip the optimization as
  // provably futile instead of burning retries on a guaranteed throw.
  const std::string cache_dir = fresh_dir("futile_cache");
  campaign::ResultCache cache(cache_dir);
  cache.store(plan.units[0].key,
              R"({"br": null, "fault_at_high_r": true,
                  "fails_everywhere": false, "condition": "",
                  "failing_decades": 0})");
  const CampaignResult r =
      run_campaign(spec, fresh_dir("futile"), cache_dir);
  EXPECT_EQ(r.outcomes[0].status, UnitStatus::Cached);
  EXPECT_EQ(r.outcomes[1].status, UnitStatus::Skipped);
  EXPECT_NE(r.outcomes[1].error.find("futile"), std::string::npos);
  EXPECT_EQ(r.done, 0) << "no simulation should have run";
}

TEST(CampaignRunnerTest, OptimizeUnitDoesNotWaitForUnrelatedBorders) {
  const CampaignSpec spec = spec_of(R"({
    "name": "nobarrier",
    "defects": ["o3", "sg"],
    "points": [{"name": "nominal", "vdd": 2.4, "temp_c": 27.0,
                "tcyc": 60e-9, "duty": 0.5}],
    "analyses": ["optimize"],
    "retry": {"max_attempts": 1}
  })");
  const CampaignPlan plan = plan_of(spec);
  ASSERT_EQ(plan.units.size(), 4u);
  const size_t border_a = 0, optimize_a = 1, border_b = 2;
  ASSERT_EQ(plan.units[optimize_a].deps, std::vector<size_t>{border_a});
  ASSERT_EQ(plan.units[border_b].kind, UnitKind::Border);
  // Defect A's border is served from the cache and shows a fault, so A's
  // optimize unit is ready at once.  Defect B's border attempt holds its
  // worker until A's optimize attempt has started: with a barrier between
  // border and optimize units that never happens.
  const std::string cache_dir = fresh_dir("nobarrier_cache");
  campaign::ResultCache(cache_dir).store(
      plan.units[border_a].key,
      R"({"br": 1e5, "fault_at_high_r": true, "fails_everywhere": false,
          "condition": "", "failing_decades": 1})");
  std::atomic<bool> optimize_started{false};
  std::atomic<bool> overlapped{false};
  RunnerOptions opt;
  opt.threads = 2;
  opt.fault_injector = [&](const WorkUnit& u, int) {
    if (u.index == optimize_a) optimize_started = true;
    if (u.index == border_b) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!optimize_started &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      overlapped = optimize_started.load();
    }
    // Every attempt fails: the test needs the schedule, not the results.
    throw ConvergenceError("injected divergence");
  };
  const CampaignResult r =
      run_campaign(spec, fresh_dir("nobarrier"), cache_dir, opt);
  EXPECT_TRUE(overlapped)
      << "A's optimize unit did not start while B's border unit ran";
  EXPECT_EQ(r.outcomes[border_a].status, UnitStatus::Cached);
  EXPECT_EQ(r.outcomes[optimize_a].status, UnitStatus::Quarantined);
  EXPECT_EQ(r.outcomes[border_b].status, UnitStatus::Quarantined);
  EXPECT_EQ(r.outcomes[3].status, UnitStatus::Skipped);
}

TEST(CampaignRunnerTest, FreshRunRefusesAnExistingJournal) {
  const std::string out = fresh_dir("refuse");
  fs::create_directories(out);
  {
    std::ofstream f(out + "/journal.jsonl");
    f << "{}\n";
  }
  const CampaignSpec spec = spec_of(kOneUnitSpec);
  EXPECT_THROW(run_campaign(spec, out, fresh_dir("refuse_cache")),
               ModelError);
}

// --- runner: real campaigns (simulation) -------------------------------

TEST(CampaignRunnerTest, RetryRecoversFromTransientFault) {
  CampaignSpec spec = spec_of(kOneUnitSpec);
  spec.retry.max_attempts = 3;
  RunnerOptions opt;
  opt.fault_injector = [](const WorkUnit&, int attempt) {
    if (attempt == 1) throw ConvergenceError("transient glitch");
  };
  const CampaignResult r = run_campaign(spec, fresh_dir("retry"),
                                        fresh_dir("retry_cache"), opt);
  EXPECT_EQ(r.done, 1);
  EXPECT_EQ(r.retried, 1);
  EXPECT_EQ(r.quarantined, 0);
  EXPECT_EQ(r.outcomes[0].status, UnitStatus::Done);
  EXPECT_EQ(r.outcomes[0].attempts, 2);
  // The recovered unit still produced a real payload, wrapped with its
  // transient count.
  const util::json::Value v = util::json::parse(r.outcomes[0].payload);
  ASSERT_NE(v.find("transients"), nullptr);
  EXPECT_GT(v.find("transients")->number, 0.0);
  ASSERT_NE(v.find("result"), nullptr);
  EXPECT_NE(v.find("result")->find("br"), nullptr);
}

/// A unit's "result" object of a report, re-emitted standalone.
std::string unit_result(const util::json::Value& report, size_t i) {
  util::json::Writer w;
  util::json::append(w, *report.find("units")->array.at(i).find("result"));
  return w.str();
}

long unit_transients(const util::json::Value& report, size_t i) {
  return static_cast<long>(
      report.find("units")->array.at(i).find("transients")->number);
}

TEST(CampaignRunnerTest, OptimizeStartsFromItsBorderUnitsResult) {
  const char* const kSpec = R"({
    "name": "reuse",
    "defects": ["sg/comp"],
    "points": [{"name": "nominal", "vdd": 2.4, "temp_c": 27.0,
                "tcyc": 60e-9, "duty": 0.5}],
    "analyses": ["border", "optimize"],
    "retry": {"max_attempts": 3, "damping_backoff": 0.5}
  })";
  const CampaignSpec spec = spec_of(kSpec);
  const CampaignPlan plan = plan_of(spec);
  ASSERT_EQ(plan.units.size(), 2u);
  ASSERT_EQ(plan.units[1].kind, UnitKind::Optimize);

  // Cold run: the optimize unit reuses the border unit's Section-3 result.
  const CampaignResult cold =
      run_campaign(spec, fresh_dir("reuse"), fresh_dir("reuse_cache"));
  ASSERT_EQ(cold.done, 2);
  const util::json::Value report =
      util::json::parse(read_file(cold.report_path));

  // The same optimization from scratch, with the campaign's options.
  const defect::Defect d = plan.defect_of(plan.units[1]);
  dram::DramColumn column(dram::default_technology());
  stress::OptimizerOptions oo;
  oo.settings = spec.settings;
  const long t0 = dram::thread_transients();
  const stress::OptimizationResult scratch = stress::optimize_stresses(
      column, d, plan.point_of(plan.units[1]).condition, oo);
  const long scratch_transients = dram::thread_transients() - t0;
  util::json::Writer w;
  stress::append_json(w, scratch, defect::default_sweep_range(d.kind));
  EXPECT_EQ(unit_result(report, 1), w.str());
  EXPECT_EQ(unit_transients(report, 1),
            scratch_transients - unit_transients(report, 0));
  // Reports carry the human result only, not the border state.
  EXPECT_EQ(report.find("units")->array[0].find("border_state"), nullptr);

  // The optimize unit over a cache that holds only its border unit.
  CampaignSpec border_only = spec;
  border_only.analyses = {UnitKind::Border};
  const std::string cache = fresh_dir("reuse_border_cache");
  ASSERT_EQ(run_campaign(border_only, fresh_dir("reuse_border"), cache).done,
            1);
  const CampaignResult warm = run_campaign(spec, fresh_dir("reuse_warm"), cache);
  EXPECT_EQ(warm.cached, 1);
  EXPECT_EQ(warm.done, 1);
  EXPECT_EQ(read_file(cold.report_path), read_file(warm.report_path));

  // A failed optimize attempt is retried from the same border state.
  RunnerOptions faulty;
  faulty.fault_injector = [](const WorkUnit& u, int attempt) {
    if (u.kind == UnitKind::Optimize && attempt == 1)
      throw ConvergenceError("transient glitch");
  };
  const CampaignResult retried = run_campaign(
      spec, fresh_dir("reuse_retry"), fresh_dir("reuse_retry_cache"), faulty);
  EXPECT_EQ(retried.retried, 1);
  EXPECT_EQ(retried.outcomes[1].attempts, 2);
  EXPECT_EQ(unit_result(util::json::parse(read_file(retried.report_path)), 1),
            unit_result(report, 1));
}

TEST(CampaignRunnerTest, SecondRunIsFullyCachedAndByteIdentical) {
  const CampaignSpec spec = spec_of(kOneUnitSpec);
  const std::string cache = fresh_dir("c2_cache");
  const CampaignResult first =
      run_campaign(spec, fresh_dir("c2_a"), cache);
  EXPECT_EQ(first.done, 1);
  const CampaignResult second =
      run_campaign(spec, fresh_dir("c2_b"), cache);
  EXPECT_EQ(second.done, 0);
  EXPECT_EQ(second.cached, 1);
  EXPECT_EQ(read_file(first.report_path), read_file(second.report_path));
}

TEST(CampaignRunnerTest, KillAndResumeMatchesUninterruptedByteForByte) {
  const CampaignSpec spec = spec_of(kTwoUnitSpec);

  // Uninterrupted baseline, isolated cache.
  const CampaignResult baseline = run_campaign(
      spec, fresh_dir("kill_base"), fresh_dir("kill_base_cache"));
  EXPECT_EQ(baseline.done, 2);

  // Crash after the first computed unit is journaled: the armed fault
  // point aborts the session right after that journal append.
  const std::string out = fresh_dir("kill_run");
  const std::string cache = fresh_dir("kill_cache");
  util::fault::arm("campaign.unit.journaled=throw");
  EXPECT_THROW(run_campaign(spec, out, cache), ModelError);
  util::fault::disarm();
  const int journaled = count_lines(out + "/journal.jsonl");
  EXPECT_GE(journaled, 1);

  // Resume: finished units come from the cache, the rest is computed, and
  // the final report matches the uninterrupted one byte for byte.
  RunnerOptions resume;
  resume.resume = true;
  const CampaignResult resumed = run_campaign(spec, out, cache, resume);
  EXPECT_GE(resumed.cached, journaled);
  EXPECT_EQ(resumed.cached + resumed.done, 2);
  EXPECT_EQ(read_file(baseline.report_path),
            read_file(resumed.report_path));

  // Resuming again is free (all cached) and does not grow the journal.
  const int lines_before = count_lines(out + "/journal.jsonl");
  const CampaignResult again = run_campaign(spec, out, cache, resume);
  EXPECT_EQ(again.cached, 2);
  EXPECT_EQ(count_lines(out + "/journal.jsonl"), lines_before);
}

TEST(CampaignRunnerTest, EditingOnePointRecomputesOnlyAffectedUnits) {
  CampaignSpec spec = spec_of(R"({
    "name": "incremental",
    "defects": ["o3"],
    "points": [
      {"name": "a", "vdd": 2.4, "temp_c": 27.0, "tcyc": 60e-9, "duty": 0.5},
      {"name": "b", "vdd": 2.4, "temp_c": 27.0, "tcyc": 55e-9, "duty": 0.5}
    ]
  })");
  const std::string cache = fresh_dir("inc_cache");
  const CampaignResult first = run_campaign(spec, fresh_dir("inc_a"), cache);
  EXPECT_EQ(first.done, 2);

  // Edit one stress point: only its unit recomputes.
  spec.points[1].condition.tcyc = 50e-9;
  const CampaignResult second =
      run_campaign(spec, fresh_dir("inc_b"), cache);
  EXPECT_EQ(second.cached, 1);
  EXPECT_EQ(second.done, 1);
}

TEST(CampaignRunnerTest, ReportIsIdenticalForOneAndFourThreads) {
  const CampaignSpec spec = spec_of(kTwoUnitSpec);
  RunnerOptions serial;
  serial.threads = 1;
  const CampaignResult one = run_campaign(
      spec, fresh_dir("t1"), fresh_dir("t1_cache"), serial);
  RunnerOptions wide;
  wide.threads = 4;
  const CampaignResult four = run_campaign(
      spec, fresh_dir("t4"), fresh_dir("t4_cache"), wide);
  EXPECT_EQ(one.done, 2);
  EXPECT_EQ(four.done, 2);
  EXPECT_EQ(read_file(one.report_path), read_file(four.report_path));
}

TEST(CampaignRunnerTest, CorruptJournalRecordIsRecomputedOnResume) {
  const CampaignSpec spec = spec_of(kOneUnitSpec);
  const std::string out = fresh_dir("cj");
  const std::string cache = fresh_dir("cj_cache");
  const CampaignResult first = run_campaign(spec, out, cache);
  EXPECT_EQ(first.done, 1);
  {
    // Corrupt the only record; the cache still holds the payload, so the
    // resume serves it without recomputing.
    std::ofstream f(out + "/journal.jsonl", std::ios::trunc);
    f << "{ torn garbage\n";
  }
  RunnerOptions resume;
  resume.resume = true;
  const CampaignResult r = run_campaign(spec, out, cache, resume);
  EXPECT_EQ(r.cached, 1);
  EXPECT_EQ(r.done, 0);
  EXPECT_TRUE(r.diagnostics.has(Code::CacheCorrupt));
  EXPECT_EQ(read_file(first.report_path), read_file(r.report_path));
}

}  // namespace
}  // namespace dramstress
