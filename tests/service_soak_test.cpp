// Concurrency soak of the campaign service (ISSUE 10 satellite 3).
//
// Many concurrent clients hammer one scheduler / one live daemon with
// overlapping campaign specs.  Two properties must hold at any worker and
// client count:
//   * every session's report.json is byte-identical to a serial
//     single-process `campaign run` of the same spec;
//   * a spec the shared cache has already answered is served without
//     touching the simulator (the obs `sim.transients` counter does not
//     move -- the microsecond path of docs/SERVICE.md).
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/cache_index.hpp"
#include "campaign/runner.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "dram/column.hpp"
#include "dram/technology.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "test_dirs.hpp"
#include "util/json.hpp"
#include "verify/diagnostic.hpp"

namespace dramstress {
namespace {

namespace fs = std::filesystem;
using campaign::CampaignPlan;
using campaign::CampaignSpec;
using campaign::Scheduler;
using campaign::SchedulerOptions;
using campaign::SessionStatus;
using campaign::SharedCache;

CampaignSpec spec_of(const std::string& text) {
  verify::VerifyReport report;
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

/// A small pool of distinct specs; clients overlap on them so the shared
/// cache and the in-flight dedup actually get exercised.
std::vector<std::string> spec_pool() {
  const char* vdd[] = {"2.3", "2.4", "2.5"};
  std::vector<std::string> specs;
  for (int i = 0; i < 3; ++i) {
    std::ostringstream s;
    s << "{\n"
      << "  \"name\": \"soak" << i << "\",\n"
      << "  \"defects\": [\"o3\"],\n"
      << "  \"points\": [{\"name\": \"p\", \"vdd\": " << vdd[i]
      << ", \"temp_c\": 27.0,\n"
      << "              \"tcyc\": 60e-9, \"duty\": 0.5}]\n"
      << "}";
    specs.push_back(s.str());
  }
  return specs;
}

/// Serial single-process baseline report bytes, one per pool spec.
std::vector<std::string> baselines(const std::vector<std::string>& specs) {
  std::vector<std::string> out;
  for (const std::string& text : specs) {
    campaign::CampaignRunner runner(plan_of(spec_of(text)),
                                    dram::default_technology(),
                                    fresh_dir("baseline"),
                                    fresh_dir("baseline_cache"), {});
    out.push_back(read_file(runner.run().report_path));
  }
  return out;
}

long transients_now() {
  return obs::metrics_snapshot().counter("sim.transients");
}

TEST(ServiceSoakTest, ConcurrentClientsMatchSerialRunsByte4Byte) {
  const std::vector<std::string> specs = spec_pool();
  const std::vector<std::string> expected = baselines(specs);

  SharedCache cache(fresh_dir("cache"));
  SchedulerOptions opt;
  opt.workers = 4;
  Scheduler sched(dram::default_technology(), &cache, opt);

  // Phase 1: 6 clients x 3 overlapping specs, submitted concurrently.
  constexpr int kClients = 6;
  std::vector<std::string> ids;
  for (int c = 0; c < kClients; ++c)
    for (size_t s = 0; s < specs.size(); ++s) {
      std::string id = "c";
      id += std::to_string(c);
      id += "_s";
      id += std::to_string(s);
      ids.push_back(id);
    }
  const long transients_before = transients_now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t s = 0; s < specs.size(); ++s)
          sched.submit("client" + std::to_string(c),
                       plan_of(spec_of(specs[s])), fresh_dir("run"),
                       ids[static_cast<size_t>(c) * specs.size() + s]);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (const std::string& id : ids)
    ASSERT_TRUE(sched.wait_finished(id, 600.0)) << id;
  for (size_t i = 0; i < ids.size(); ++i) {
    const SessionStatus st = sched.session(ids[i]).value();
    ASSERT_EQ(st.state, "finished") << ids[i] << ": " << st.error;
    EXPECT_EQ(read_file(st.report_path), expected[i % specs.size()])
        << ids[i];
  }
  // 18 sessions, 3 distinct units: the shared cache + in-flight dedup must
  // have collapsed the work (at most one compute per distinct unit).
  const campaign::SharedCacheStats after1 = cache.stats();
  EXPECT_LE(after1.stores, static_cast<long>(specs.size()));

  // Phase 2: every spec again, fresh sessions.  All answers must come from
  // the shared cache without touching the simulator: the global transient
  // counter must not move (trivially 0 == 0 when obs is compiled out).
  const long phase1_delta = transients_now() - transients_before;
  const long before2 = transients_now();
  const long stores2 = cache.stats().stores;
  for (size_t s = 0; s < specs.size(); ++s) {
    sched.submit("revisit", plan_of(spec_of(specs[s])), fresh_dir("run"),
                 "again" + std::to_string(s));
    ASSERT_TRUE(sched.wait_finished("again" + std::to_string(s), 600.0));
    const SessionStatus st =
        sched.session("again" + std::to_string(s)).value();
    EXPECT_EQ(st.cached, st.total);
    EXPECT_EQ(st.done, 0);
    EXPECT_EQ(read_file(st.report_path), expected[s]);
  }
  EXPECT_EQ(transients_now() - before2, 0)
      << "cache hits must not reach the simulator (phase 1 burned "
      << phase1_delta << " transients)";
  EXPECT_EQ(cache.stats().stores, stores2);

  sched.drain();
}

// --- the same properties over the wire ----------------------------------

std::string submit_body(const std::string& client,
                        const std::string& spec_text) {
  return "{\"client\": \"" + client + "\", \"spec\": " + spec_text + "}";
}

service::Request post(const std::string& target, const std::string& body) {
  service::Request r;
  r.method = "POST";
  r.target = target;
  r.body = body;
  return r;
}

service::Request get(const std::string& target) {
  service::Request r;
  r.method = "GET";
  r.target = target;
  return r;
}

std::string json_field(const std::string& body, const std::string& key) {
  const util::json::Value v = util::json::parse(body);
  const util::json::Value* f = v.find(key);
  EXPECT_NE(f, nullptr) << key << " missing in " << body;
  return f != nullptr ? f->string : std::string();
}

TEST(ServiceSoakTest, LiveDaemonServesConcurrentSocketClients) {
  const std::vector<std::string> specs = spec_pool();
  const std::vector<std::string> expected = baselines(specs);

  service::ServerOptions opt;
  opt.socket_path =
      (fs::path(fresh_dir("sock")) / "dramstress.sock").string();
  opt.runs_dir = fresh_dir("runs");
  opt.cache_dir = fresh_dir("cache");
  opt.workers = 2;
  opt.io_threads = 3;
  service::Server server(dram::default_technology(), opt);
  std::thread daemon([&server] { server.serve(); });

  constexpr int kClients = 4;
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t s = 0; s < specs.size(); ++s) {
        const std::string name = "wire" + std::to_string(c);
        const service::Response sub = service::request(
            opt.socket_path, post("/submit", submit_body(name, specs[s])));
        ASSERT_EQ(sub.status, 202) << sub.body;
        const std::string id = json_field(sub.body, "id");
        for (int tries = 0; tries < 3000; ++tries) {
          const service::Response st =
              service::request(opt.socket_path, get("/status/" + id));
          ASSERT_EQ(st.status, 200) << st.body;
          const util::json::Value v = util::json::parse(st.body);
          const util::json::Value* fin = v.find("finished");
          if (fin != nullptr && fin->boolean) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        const service::Response rep =
            service::request(opt.socket_path, get("/report/" + id));
        ASSERT_EQ(rep.status, 200) << rep.body;
        got[static_cast<size_t>(c)].push_back(rep.body);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // /metrics answers while sessions exist, and the daemon drains cleanly.
  const service::Response metrics =
      service::request(opt.socket_path, get("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("dramstress_manifest_version"),
            std::string::npos);
  const service::Response down =
      service::request(opt.socket_path, post("/shutdown", "{}"));
  EXPECT_EQ(down.status, 202);
  daemon.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[static_cast<size_t>(c)].size(), specs.size());
    for (size_t s = 0; s < specs.size(); ++s)
      EXPECT_EQ(got[static_cast<size_t>(c)][s], expected[s])
          << "client " << c << " spec " << s;
  }
}

}  // namespace
}  // namespace dramstress
