// Fault-injection harness + shared-cache + scheduler tests of the
// campaign service (ISSUE 10 satellite 1).
//
// The service's resilience claims are exercised by *causing* each failure
// through util/fault (docs/SERVICE.md): a computation that throws mid-
// unit, a journal line torn mid-write, a cache object corrupted on disk.
// After every injected fault the daemon-side machinery must quarantine or
// resume and byte-reproduce report.json against an uninjured run.
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/cache_index.hpp"
#include "campaign/runner.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "dram/column.hpp"
#include "dram/technology.hpp"
#include "test_dirs.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "verify/diagnostic.hpp"

namespace dramstress {
namespace {

namespace fs = std::filesystem;
using campaign::CacheKey;
using campaign::CampaignPlan;
using campaign::CampaignSpec;
using campaign::Scheduler;
using campaign::SchedulerOptions;
using campaign::SessionStatus;
using campaign::SharedCache;
using campaign::SharedCacheOptions;
using verify::VerifyReport;

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

/// One cheap border unit (the smallest real campaign).
const char* kOneUnitSpec = R"({
  "name": "one",
  "defects": ["o3"],
  "points": [{"name": "nominal", "vdd": 2.4, "temp_c": 27.0,
              "tcyc": 60e-9, "duty": 0.5}]
})";

/// Two independent border units.
const char* kTwoUnitSpec = R"({
  "name": "two",
  "defects": ["o3", "sg"],
  "points": [{"name": "nominal", "vdd": 2.4, "temp_c": 27.0,
              "tcyc": 60e-9, "duty": 0.5}]
})";

/// Serial single-process baseline: the bytes every service run must hit.
std::string baseline_report(const char* spec_text) {
  const std::string out = fresh_dir("baseline");
  campaign::CampaignRunner runner(plan_of(spec_of(spec_text)),
                                  dram::default_technology(), out,
                                  fresh_dir("baseline_cache"), {});
  return read_file(runner.run().report_path);
}

/// RAII disarm so a failing test never leaks an armed fault into the next.
struct ArmedFault {
  explicit ArmedFault(const std::string& spec) { util::fault::arm(spec); }
  ~ArmedFault() { util::fault::disarm(); }
};

// --- util/fault itself -------------------------------------------------

TEST(FaultTest, DisarmedPointsAreInert) {
  EXPECT_EQ(util::fault::hit("campaign.unit.compute"),
            util::fault::Action::None);
}

TEST(FaultTest, FiresOnceAtTheRequestedHit) {
  ArmedFault armed("p=corrupt@2");
  EXPECT_EQ(util::fault::hit("p"), util::fault::Action::None);
  EXPECT_EQ(util::fault::hit("p"), util::fault::Action::Corrupt);
  EXPECT_EQ(util::fault::hit("p"), util::fault::Action::None);
}

TEST(FaultTest, ThrowActionThrowsInjected) {
  ArmedFault armed("p=throw");
  EXPECT_THROW(util::fault::hit("p"), util::fault::Injected);
}

TEST(FaultTest, MultipleEntriesAreIndependent) {
  ArmedFault armed("a=tear,b=corrupt@1");
  EXPECT_EQ(util::fault::hit("b"), util::fault::Action::Corrupt);
  EXPECT_EQ(util::fault::hit("a"), util::fault::Action::Tear);
  EXPECT_EQ(util::fault::hit("a"), util::fault::Action::None);
}

TEST(FaultTest, MalformedSpecsThrowModelError) {
  for (const char* bad : {"noequals", "p=explode", "p=throw@0", "p=throw@x",
                          "=throw", "p="}) {
    EXPECT_THROW(util::fault::arm(bad), ModelError) << bad;
    util::fault::disarm();
  }
}

// --- SharedCache: the two-tier index -----------------------------------

CacheKey key_of(const std::string& text) {
  campaign::KeyHasher h;
  h.feed(text);
  return h.key();
}

/// Valid-JSON payload of a controlled size (the disk tier re-emits the
/// payload through the JSON writer, so raw byte blobs are not storable).
std::string payload(char fill, size_t n) {
  return "{\"pad\": \"" + std::string(n, fill) + "\"}";
}

TEST(SharedCacheTest, StoreThenLookupHitsTheMemoryTier) {
  SharedCache cache(fresh_dir("shared"));
  const CacheKey k = key_of("unit-a");
  cache.store(k, "{\"payload\": 1}");
  VerifyReport report;
  const std::optional<std::string> hit = cache.lookup(k, &report);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "{\"payload\": 1}");
  EXPECT_TRUE(cache.in_memory(k));
  EXPECT_EQ(cache.stats().mem_hits, 1);
  EXPECT_EQ(cache.stats().misses, 0);
}

TEST(SharedCacheTest, DiskTierSurvivesAndPromotesIntoMemory) {
  const std::string dir = fresh_dir("shared");
  const CacheKey k = key_of("unit-b");
  {
    SharedCache first(dir);
    first.store(k, "{\"payload\": 2}");
  }
  SharedCache second(dir);  // cold memory tier, warm disk tier
  EXPECT_FALSE(second.in_memory(k));
  VerifyReport report;
  const std::optional<std::string> hit = second.lookup(k, &report);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(second.stats().disk_hits, 1);
  EXPECT_TRUE(second.in_memory(k));  // promoted
  second.lookup(k, &report);
  EXPECT_EQ(second.stats().mem_hits, 1);
}

TEST(SharedCacheTest, MemoryTierEvictsLeastRecentlyUsed) {
  SharedCacheOptions opt;
  // Each 64-char payload costs 75 bytes + the 128-byte entry overhead:
  // two entries fit the budget, a third forces one eviction.
  opt.max_memory_bytes = 450;
  SharedCache cache(fresh_dir("shared"), opt);
  const CacheKey a = key_of("a"), b = key_of("b"), c = key_of("c");
  cache.store(a, payload('a', 64));
  cache.store(b, payload('b', 64));
  VerifyReport report;
  cache.lookup(a, &report);  // a is now more recent than b
  cache.store(c, payload('c', 64));
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_FALSE(cache.in_memory(b));  // b was the LRU entry
  EXPECT_TRUE(cache.in_memory(c));
  // The evicted entry is still a disk hit, not a recompute.
  EXPECT_TRUE(cache.lookup(b, &report).has_value());
}

TEST(SharedCacheTest, GcLruRemovesOldestFirstAndKeepsHotObjects) {
  const std::string dir = fresh_dir("shared");
  SharedCache cache(dir);
  const CacheKey cold = key_of("cold"), hot = key_of("hot");
  cache.store(cold, payload('x', 256));
  cache.store(hot, payload('y', 256));
  VerifyReport report;
  cache.lookup(hot, &report);  // hot is used after cold
  // Budget for exactly one on-disk object: the least recently used must go.
  const size_t one = fs::file_size(cache.disk().object_path(hot));
  const int removed = cache.gc_lru(one + 8, &report);
  EXPECT_EQ(removed, 1);
  EXPECT_TRUE(cache.disk().contains(hot));
  EXPECT_FALSE(cache.disk().contains(cold));
}

TEST(SharedCacheTest, InjectedDiskCorruptionIsAnE310Miss) {
  const std::string dir = fresh_dir("shared");
  const CacheKey k = key_of("unit-c");
  {
    ArmedFault armed("campaign.cache.store=corrupt");
    SharedCache writer(dir);
    writer.store(k, "{\"payload\": 3}");
    // The write-through memory tier still answers -- the corruption is on
    // disk, which is exactly what makes it dangerous.
    VerifyReport report;
    EXPECT_TRUE(writer.lookup(k, &report).has_value());
  }
  SharedCache reader(dir);  // cold memory: must go to the damaged disk
  VerifyReport report;
  EXPECT_FALSE(reader.lookup(k, &report).has_value());
  ASSERT_FALSE(report.diagnostics().empty());
  EXPECT_STREQ(verify::code_id(report.diagnostics().front().code), "E310");
  EXPECT_EQ(reader.stats().misses, 1);
}

// --- scheduler under injected faults -----------------------------------

SessionStatus run_session(Scheduler* sched, const char* spec_text,
                          const std::string& run_dir,
                          const std::string& client = "tester",
                          const std::string& id = "s1") {
  sched->submit(client, plan_of(spec_of(spec_text)), run_dir, id);
  EXPECT_TRUE(sched->wait_finished(id, 300.0));
  return sched->session(id).value();
}

TEST(SchedulerFaultTest, ThrowingUnitIsRetriedThenDone) {
  SharedCache cache(fresh_dir("cache"));
  SchedulerOptions opt;
  opt.workers = 2;
  int attempts_seen = 0;
  opt.fault_injector = [&attempts_seen](const campaign::WorkUnit&,
                                        int attempt) {
    ++attempts_seen;
    if (attempt == 1) throw ModelError("injected first-attempt failure");
  };
  Scheduler sched(dram::default_technology(), &cache, opt);
  const SessionStatus st =
      run_session(&sched, kOneUnitSpec, fresh_dir("run"));
  EXPECT_EQ(st.state, "finished");
  EXPECT_EQ(st.done, 1);
  EXPECT_EQ(st.retried, 1);
  EXPECT_EQ(attempts_seen, 2);
  EXPECT_EQ(read_file(st.report_path), baseline_report(kOneUnitSpec));
}

TEST(SchedulerFaultTest, ExhaustedRetriesQuarantineWithoutSinkingTheRun) {
  SharedCache cache(fresh_dir("cache"));
  SchedulerOptions opt;
  opt.workers = 2;
  opt.fault_injector = [](const campaign::WorkUnit& u, int) {
    if (u.id.find("O3") != std::string::npos)
      throw ModelError("injected permanent failure");
  };
  Scheduler sched(dram::default_technology(), &cache, opt);
  const SessionStatus st =
      run_session(&sched, kTwoUnitSpec, fresh_dir("run"));
  EXPECT_EQ(st.state, "finished");
  EXPECT_EQ(st.quarantined, 1);
  EXPECT_EQ(st.done, 1);  // the healthy unit still completed
  EXPECT_NE(read_file(st.failure_report_path).find("injected permanent"),
            std::string::npos);
}

TEST(SchedulerFaultTest, TornJournalFailsSessionThenResumesByteIdentical) {
  SharedCache cache(fresh_dir("cache"));
  const std::string run_dir = fresh_dir("run");
  Scheduler sched(dram::default_technology(), &cache, {});
  {
    // Tear the journal on the first completed unit: the write throws
    // after half a record, the session aborts as "failed".
    ArmedFault armed("campaign.journal.append=tear");
    sched.submit("tester", plan_of(spec_of(kOneUnitSpec)), run_dir, "s1");
    ASSERT_TRUE(sched.wait_finished("s1", 300.0));
    const SessionStatus st = sched.session("s1").value();
    EXPECT_EQ(st.state, "failed");
    EXPECT_NE(st.error.find("journal"), std::string::npos);
  }
  // Resubmit under the same id: the failed session is replaced by a fresh
  // one that replays the torn journal (E310-tolerant) and recomputes
  // whatever the torn line lost.
  const SessionStatus st =
      run_session(&sched, kOneUnitSpec, run_dir, "tester", "s1");
  EXPECT_EQ(st.state, "finished");
  EXPECT_EQ(read_file(st.report_path), baseline_report(kOneUnitSpec));
}

TEST(SchedulerFaultTest, CorruptCacheObjectIsRecomputedNotServed) {
  const std::string cache_dir = fresh_dir("cache");
  const std::string baseline = baseline_report(kOneUnitSpec);
  {
    ArmedFault armed("campaign.cache.store=corrupt");
    SharedCache cache(cache_dir);
    Scheduler sched(dram::default_technology(), &cache, {});
    const SessionStatus st =
        run_session(&sched, kOneUnitSpec, fresh_dir("run"));
    // The run itself is healthy -- the corruption is silent, on disk.
    EXPECT_EQ(st.state, "finished");
    EXPECT_EQ(read_file(st.report_path), baseline);
  }
  // A fresh daemon (cold memory tier) must detect the damaged object,
  // treat it as a miss, recompute, and still reproduce the bytes.
  SharedCache cache(cache_dir);
  Scheduler sched(dram::default_technology(), &cache, {});
  const SessionStatus st =
      run_session(&sched, kOneUnitSpec, fresh_dir("run"));
  EXPECT_EQ(st.state, "finished");
  EXPECT_EQ(st.done, 1);    // recomputed
  EXPECT_EQ(st.cached, 0);  // the corrupt object was not served
  EXPECT_EQ(read_file(st.report_path), baseline);
}

// --- scheduler semantics ------------------------------------------------

TEST(SchedulerTest, ReportsAreByteIdenticalToTheSingleProcessRunner) {
  SharedCache cache(fresh_dir("cache"));
  SchedulerOptions opt;
  opt.workers = 4;
  Scheduler sched(dram::default_technology(), &cache, opt);
  const SessionStatus st =
      run_session(&sched, kTwoUnitSpec, fresh_dir("run"));
  EXPECT_EQ(read_file(st.report_path), baseline_report(kTwoUnitSpec));
}

TEST(SchedulerTest, SecondSessionWithSameSpecIsAllCacheHits) {
  SharedCache cache(fresh_dir("cache"));
  Scheduler sched(dram::default_technology(), &cache, {});
  run_session(&sched, kOneUnitSpec, fresh_dir("run"), "alice", "a");
  const long stores = cache.stats().stores;
  const SessionStatus st =
      run_session(&sched, kOneUnitSpec, fresh_dir("run"), "bob", "b");
  EXPECT_EQ(st.cached, st.total);
  EXPECT_EQ(st.done, 0);
  EXPECT_EQ(cache.stats().stores, stores);  // nothing recomputed
}

TEST(SchedulerTest, SubmitIsIdempotentPerSessionId) {
  SharedCache cache(fresh_dir("cache"));
  Scheduler sched(dram::default_technology(), &cache, {});
  const std::string run_dir = fresh_dir("run");
  sched.submit("a", plan_of(spec_of(kOneUnitSpec)), run_dir, "same");
  const SessionStatus again =
      sched.submit("a", plan_of(spec_of(kOneUnitSpec)), run_dir, "same");
  EXPECT_EQ(again.id, "same");
  EXPECT_TRUE(sched.wait_finished("same", 300.0));
  EXPECT_EQ(sched.status().sessions.size(), 1u);
}

TEST(SchedulerTest, DrainRefusesNewSubmitsAndFinishesTheRest) {
  SharedCache cache(fresh_dir("cache"));
  Scheduler sched(dram::default_technology(), &cache, {});
  sched.submit("a", plan_of(spec_of(kOneUnitSpec)), fresh_dir("run"), "s");
  sched.drain();
  EXPECT_TRUE(sched.session("s").value().finished);
  EXPECT_THROW(sched.submit("a", plan_of(spec_of(kOneUnitSpec)),
                            fresh_dir("run"), "late"),
               ModelError);
}

TEST(SchedulerTest, WaitFinishedTimesOutOnUnknownSessions) {
  SharedCache cache(fresh_dir("cache"));
  Scheduler sched(dram::default_technology(), &cache, {});
  EXPECT_FALSE(sched.wait_finished("nope", 0.05));
}

}  // namespace
}  // namespace dramstress
