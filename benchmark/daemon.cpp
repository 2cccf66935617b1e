// The daemon_warm workload: an in-process campaign daemon answering
// closed-loop clients from a primed cache, so the measured phase runs no
// simulation at all (README: why 4 fixed client names).
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "dram/column.hpp"
#include "dsbench.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/json.hpp"

namespace dsbench {

namespace fs = std::filesystem;
namespace json = dramstress::util::json;
using namespace dramstress;

namespace {

// A fixed request count, not a deadline: the daemon keeps every session,
// so per-request cost grows with the sessions already served, and a run
// must see the same growth whatever the machine's speed.  200 requests
// per second of --seconds: 8000 at the benchmark's 40 s, which take a few
// seconds.  The count is kept this low by disk: each session leaves about
// 20 KB of files behind, 160 MB per run at 8000.
constexpr double kRequestsPerSecond = 200.0;
constexpr int kSmokeRequests = 40;
// The requests are split over rounds of 1000, each served by a daemon
// started afresh on the primed cache (one setup_s sample per round).  One
// daemon serving 8000 requests slowed from 1.0 to 3.5 ms per request as
// its sessions piled up, so p50 and p99 measured the slope of that climb,
// and they moved by 0.19-0.30 (quartile spread over median) from run to
// run.
constexpr int kRequestsPerRound = 1000;
constexpr auto kPollInterval = std::chrono::microseconds(500);
// A warm request is answered from the cache; priming simulates.
constexpr double kRequestTimeoutS = 30.0;
constexpr double kPrimeTimeoutS = 600.0;
const char* const kBaselineName = "dsbench-baseline";

/// A daemon serving on `dir`/d.sock from a thread of this process, its
/// sessions under `dir`/runs and its results in `cache_dir`.
class Daemon {
public:
  Daemon(const std::string& dir, const std::string& cache_dir, int threads)
      : socket_(dir + "/d.sock"),
        server_(dram::default_technology(),
                options(dir, cache_dir, threads)),
        thread_([this] {
          try {
            server_.serve();
          } catch (const std::exception& e) {
            // The clients then fail to connect, and those failures count.
            std::fprintf(stderr, "dsbench: daemon stopped: %s\n", e.what());
          }
        }) {}
  ~Daemon() {
    server_.shutdown();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }

private:
  static service::ServerOptions options(const std::string& dir,
                                        const std::string& cache_dir,
                                        int threads) {
    fs::create_directories(dir);
    service::ServerOptions o;
    o.socket_path = dir + "/d.sock";
    o.runs_dir = dir + "/runs";
    o.cache_dir = cache_dir;
    o.workers = threads;
    o.io_threads = threads;
    return o;
  }

  std::string socket_;
  service::Server server_;
  std::thread thread_;
};

/// One subset of the primed matrix: defect and point indices, in order.
struct Combo {
  std::vector<size_t> defects;
  std::vector<size_t> points;

  std::string key() const {
    std::string k;
    for (const size_t d : defects) k += std::to_string(d) + ",";
    k += "|";
    for (const size_t p : points) k += std::to_string(p) + ",";
    return k;
  }
};

std::vector<size_t> random_subset(Rng& rng, size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  rng.shuffle(idx);
  idx.resize(1 + rng.below(n));
  return idx;
}

/// The primed spec restricted to `c`, renamed `name`.
std::string subset_spec(const json::Value& prime, const Combo& c,
                        const std::string& name) {
  json::Writer w;
  w.begin_object();
  for (const auto& [key, value] : prime.object) {
    w.key(key);
    if (key == "name") {
      w.value(name);
    } else if (key == "defects" || key == "points") {
      const std::vector<size_t>& pick = key == "defects" ? c.defects : c.points;
      w.begin_array();
      for (const size_t i : pick) json::append(w, value.array.at(i));
      w.end_array();
    } else {
      json::append(w, value);
    }
  }
  w.end_object();
  return w.str();
}

service::Request make_request(const char* method, const std::string& target,
                              const std::string& body = {}) {
  service::Request r;
  r.method = method;
  r.target = target;
  r.body = body;
  return r;
}

/// Submit `spec` as `client`, then poll /report/<id> until it is served
/// or `timeout_s` passed.  Returns the report bytes; on any other outcome
/// sets `error`.
std::string round_trip(const std::string& socket, const std::string& client,
                       const std::string& spec, double timeout_s, long* polls,
                       std::string* error) {
  const service::Response sub = service::request(
      socket, make_request("POST", "/submit",
                           "{\"client\": \"" + client + "\", \"spec\": " +
                               spec + "}"));
  if (sub.status != 202) {
    *error = "submit answered " + std::to_string(sub.status) + ": " + sub.body;
    return {};
  }
  const json::Value v = json::parse(sub.body);
  const json::Value* id = v.find("id");
  if (id == nullptr || !id->is_string()) {
    *error = "submit answer has no id: " + sub.body;
    return {};
  }
  const Clock::time_point start = Clock::now();
  for (;;) {
    ++*polls;
    const service::Response rep =
        service::request(socket, make_request("GET", "/report/" + id->string));
    if (rep.status == 200) return rep.body;
    if (rep.status != 409) {
      *error = "report answered " + std::to_string(rep.status) + ": " +
               rep.body;
      return {};
    }
    if (seconds_since(start) > timeout_s) {
      *error = "report not ready after " + std::to_string(timeout_s) + " s";
      return {};
    }
    std::this_thread::sleep_for(kPollInterval);
  }
}

/// Start a daemon on a fresh `dir` over `cache_dir` and have it answer
/// `spec` as client `client` (within `timeout_s`) before it serves
/// anyone else.
std::unique_ptr<Daemon> start_answering(const std::string& dir,
                                        const std::string& cache_dir,
                                        int threads, const char* client,
                                        const std::string& spec,
                                        double timeout_s) {
  auto d = std::make_unique<Daemon>(dir, cache_dir, threads);
  long polls = 0;
  std::string error;
  round_trip(d->socket(), client, spec, timeout_s, &polls, &error);
  if (!error.empty())
    throw ModelError(std::string("daemon answering ") + client + ": " + error);
  return d;
}

struct Sample {
  Combo combo;
  std::string name;
  uint64_t report_hash = 0;
  std::string error;  // empty when the report arrived
};

/// Report bytes an in-process CampaignRunner writes for `c` (named
/// kBaselineName), reading the daemons' cache in `cache_dir`.
std::string runner_baseline(const json::Value& prime, const Combo& c,
                            const std::string& cache_dir,
                            const std::string& run) {
  verify::VerifyReport report;
  const std::optional<campaign::CampaignSpec> spec =
      campaign::parse_spec(subset_spec(prime, c, kBaselineName), &report);
  if (!spec.has_value()) throw ModelError(report.str());
  const dram::DramColumn column(dram::default_technology());
  campaign::CampaignRunner runner(campaign::expand(*spec, column),
                                  dram::default_technology(), run, cache_dir,
                                  {});
  return read_file(runner.run().report_path);
}

}  // namespace

Result run_daemon_warm(const Args& a) {
  Result r;
  const std::string prime_text = read_file(a.specs_dir + "/daemon_prime.json");
  const json::Value prime = json::parse(prime_text);
  const size_t n_defects = prime.find("defects")->array.size();
  const size_t n_points = prime.find("points")->array.size();

  // Before any round, and untimed: one daemon computes the primed matrix
  // into the cache every later daemon reads (campaign_cold times that
  // kind of work).
  const std::string cache_dir = "daemon/cache";
  start_answering("daemon/prime", cache_dir, a.threads, "prime", prime_text,
                  kPrimeTimeoutS);

  // Closed loop: each client sends its next request only after the
  // previous report arrived.  Four fixed client names, one connection at
  // a time each; every request is a new session (unique spec name) whose
  // units are all cache hits.  The requests are served in rounds, each by
  // a daemon started afresh on the primed cache (see kRequestsPerRound).
  const int clients = a.threads;
  const int requests =
      a.smoke ? kSmokeRequests
              : static_cast<int>(std::lround(kRequestsPerSecond * a.seconds));
  const int rounds = std::max(1, requests / kRequestsPerRound);
  const int quota = std::max(1, requests / (clients * rounds));
  std::vector<Rng> rngs;
  for (int c = 0; c < clients; ++c)
    rngs.emplace_back(a.seed * 1000003ull + static_cast<uint64_t>(c));
  std::vector<std::vector<double>> latency_ms(clients);
  std::vector<std::vector<Sample>> samples(clients);
  std::vector<long> polls(clients, 0);
  std::vector<std::string> aborted(clients);
  for (int round = 0; round < rounds; ++round) {
    // Set-up: start a daemon on a warm disk cache and have it answer the
    // whole primed matrix, which loads every cached result it will serve.
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Daemon> daemon =
        start_answering("daemon/round" + std::to_string(round), cache_dir,
                        a.threads, "warm", prime_text, kRequestTimeoutS);
    r.setup_s.push_back(seconds_since(t0));

    phase_begin();
    const double cpu0 = process_cpu_s();
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> team;
    for (int c = 0; c < clients; ++c) {
      team.emplace_back([&, c] {
        const size_t ci = static_cast<size_t>(c);
        try {
          const std::string client = "client" + std::to_string(c);
          for (int k = round * quota; k < (round + 1) * quota; ++k) {
            Sample s;
            s.combo = Combo{random_subset(rngs[ci], n_defects),
                            random_subset(rngs[ci], n_points)};
            s.name = "dw-" + std::to_string(a.seed) + "-" +
                     std::to_string(c) + "-" + std::to_string(k);
            const std::string spec = subset_spec(prime, s.combo, s.name);
            const Clock::time_point sent = Clock::now();
            const std::string report =
                round_trip(daemon->socket(), client, spec, kRequestTimeoutS,
                           &polls[ci], &s.error);
            latency_ms[ci].push_back(seconds_since(sent) * 1e3);
            s.report_hash = fnv1a(report);
            samples[ci].push_back(std::move(s));
          }
        } catch (const std::exception& e) {
          aborted[ci] = std::string("client aborted: ") + e.what();
        }
      });
    }
    for (std::thread& t : team) t.join();
    r.measure_s += seconds_since(start);
    r.cpu_s += process_cpu_s() - cpu0;
    phase_end(r);
  }

  // Zero simulation in the measured phase: every unit is a cache hit.
  if (const long moved = r.counters["sim.transients"]; moved != 0)
    r.fail(std::to_string(moved) + " transients ran during the warm phase");

  // Every report must equal, byte for byte, what an in-process
  // CampaignRunner writes for the same spec (renamed back).  The digest
  // covers each client's first requests, which the seed alone decides.
  constexpr size_t kDigestRequests = 5;
  std::map<std::string, std::string> baselines;
  uint64_t digest = fnv1a(prime_text);
  long total_polls = 0;
  for (int c = 0; c < clients; ++c) {
    const size_t ci = static_cast<size_t>(c);
    total_polls += polls[ci];
    r.op_ms.insert(r.op_ms.end(), latency_ms[ci].begin(),
                   latency_ms[ci].end());
    if (!aborted[ci].empty()) r.fail(aborted[ci]);
    for (size_t k = 0; k < samples[ci].size(); ++k) {
      const Sample& s = samples[ci][k];
      ++r.attempted;
      if (!s.error.empty()) {
        r.fail(s.name + ": " + s.error);
        continue;
      }
      const std::string key = s.combo.key();
      auto it = baselines.find(key);
      if (it == baselines.end())
        it = baselines
                 .emplace(key, runner_baseline(
                                   prime, s.combo, cache_dir,
                                   "daemon/baseline" +
                                       std::to_string(baselines.size())))
                 .first;
      std::string expected = it->second;
      const std::string from = std::string("\"") + kBaselineName + "\"";
      expected.replace(expected.find(from), from.size(), "\"" + s.name + "\"");
      if (fnv1a(expected) != s.report_hash)
        r.fail(s.name + ": report differs from the CampaignRunner baseline");
      if (k < kDigestRequests) digest = fnv1a(expected, digest);
    }
  }
  r.polls_per_request =
      r.attempted > 0 ? static_cast<double>(total_polls) / r.attempted : 0.0;
  r.digest = hex64(digest);

  // Write the run's files (about 20 KB per session) back before exiting:
  // left to the kernel, that writeback would run during the next run.
  if (const int fd = ::open(".", O_RDONLY | O_DIRECTORY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
  return r;
}

}  // namespace dsbench
