// dsbench: runs one workload of the dramstress benchmark and prints one
// JSON line of raw samples (benchmark/README.md).
//
//   dsbench --workload=NAME --seed=N --seconds=S --specs=DIR [--smoke]
//
// Exit codes: 0 after a run (failed operations are reported in the JSON,
// not through the exit code), 1 when a workload throws, 2 on a usage
// error or when any DRAMSTRESS_* variable is set -- DRAMSTRESS_BATCH
// silently switches the transient engine and DRAMSTRESS_THREADS the
// thread count, so a run under either would not measure what it claims.
#include "dsbench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/version.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

extern char** environ;

// Provided by layer_wrap.cpp in dsbench_traced only; null in dsbench.
extern "C" __attribute__((weak)) void dsbench_layers_mark();
extern "C" __attribute__((weak)) void dsbench_layers_json(std::string* out);

namespace dsbench {

namespace json = dramstress::util::json;

void Result::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

uint64_t fnv1a(const std::string& data, uint64_t h) {
  for (const unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) throw dramstress::ModelError("cannot read " + path);
  std::ostringstream text;
  text << f.rdbuf();
  return text.str();
}

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus_) CPU_SET(c, &mask);
  sched_setaffinity(0, sizeof mask, &mask);
}

void CpuRotation::pin(size_t i) {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[i % cpus_.size()], &mask);
  // Best effort: a thread that cannot move is timed where it runs.
  sched_setaffinity(0, sizeof mask, &mask);
}

uint64_t Rng::next() {
  uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

dramstress::obs::MetricsSnapshot g_counters_at_begin;

}  // namespace

void phase_begin() {
  g_counters_at_begin = dramstress::obs::metrics_snapshot();
  if (dsbench_layers_mark != nullptr) dsbench_layers_mark();
}

void phase_end(Result& r) {
  const dramstress::obs::MetricsSnapshot now =
      dramstress::obs::metrics_snapshot();
  for (const auto& [name, value] : now.counters) {
    const long delta = value - g_counters_at_begin.counter(name);
    if (delta != 0) r.counters[name] += delta;
  }
  if (dsbench_layers_json != nullptr) {
    std::string table;
    dsbench_layers_json(&table);
    r.layers.push_back(std::move(table));
  }
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "dsbench: %s\n"
               "usage: dsbench --workload=fig2_planes|campaign_cold|"
               "daemon_warm --seed=N --seconds=S --specs=DIR "
               "[--smoke]\n",
               why);
  return 2;
}

/// Value of `--name=value` in `arg`, or nullptr.
const char* flag_value(const char* arg, const char* name) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

/// Peak resident set of this process image.  Not getrusage's ru_maxrss:
/// Linux keeps that across execve, so it would report the launching
/// Python process whenever that was larger.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw dramstress::ModelError("no VmHWM in /proc/self/status");
}

void put_number(json::Writer& w, double v) {
  if (std::isfinite(v))
    w.value(v);
  else
    w.null();
}

std::string result_json(const Args& a, const Result& r) {
  json::Writer w;
  w.begin_object();
  w.key("workload").value(a.workload);
  w.key("seed").value(static_cast<long>(a.seed));
  w.key("smoke").value(a.smoke);
  w.key("env").begin_object();
  w.key("threads").value(a.threads);
  w.key("batch").value(dramstress::util::resolve_batch(0));
  w.key("build_type").value(dramstress::obs::build_type());
  w.key("obs_compiled_in").value(dramstress::obs::compiled_in());
  w.key("git_describe").value(dramstress::obs::git_describe());
  w.key("traced").value(dsbench_layers_json != nullptr);
  w.end_object();
  w.key("setup_s").begin_array();
  for (const double s : r.setup_s) w.value(s);
  w.end_array();
  w.key("op_ms").begin_array();
  for (const double ms : r.op_ms) w.value(ms);
  w.end_array();
  w.key("measure_s").value(r.measure_s);
  w.key("cpu_s").value(r.cpu_s);
  w.key("peak_rss_mb").value(peak_rss_mb());
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("failures").begin_array();
  for (const std::string& f : r.failures) w.value(f);
  w.end_array();
  w.key("digest").value(r.digest);
  w.key("brs").begin_object();
  for (const auto& [k, v] : r.brs) {
    w.key(k);
    if (v.has_value())
      put_number(w, *v);
    else
      w.null();
  }
  w.end_object();
  w.key("polls_per_request").value(r.polls_per_request);
  w.key("counters").begin_object();
  for (const auto& [k, v] : r.counters) w.key(k).value(v);
  w.end_object();
  w.key("layers").begin_array();
  for (const std::string& table : r.layers) json::append(w, json::parse(table));
  w.end_array();
  w.end_object();
  // One line: run.py reads the last line of stdout.
  std::string text = w.str();
  for (char& c : text)
    if (c == '\n') c = ' ';
  return text;
}

}  // namespace

}  // namespace dsbench

int main(int argc, char** argv) {
  using namespace dsbench;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DRAMSTRESS_", 11) == 0) {
      std::fprintf(stderr,
                   "dsbench: refusing to run with %s set: DRAMSTRESS_* "
                   "variables change what the library computes\n",
                   *e);
      return 2;
    }
  }

  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = flag_value(arg, "--workload")) {
      a.workload = v;
    } else if (const char* v = flag_value(arg, "--seed")) {
      char* end = nullptr;
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return usage("bad --seed");
    } else if (const char* v = flag_value(arg, "--seconds")) {
      char* end = nullptr;
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0))
        return usage("bad --seconds");
    } else if (const char* v = flag_value(arg, "--specs")) {
      a.specs_dir = v;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      a.smoke = true;
    } else {
      return usage("unknown argument");
    }
  }
  if (a.specs_dir.empty()) return usage("--specs is required");

  // Load comes from this one process: at most 4 threads, never more than
  // the machine has, whatever the host.
  a.threads = std::min(4, dramstress::util::hardware_threads());
  dramstress::util::set_default_threads(a.threads);

  Result (*run)(const Args&) = nullptr;
  if (a.workload == "fig2_planes")
    run = run_fig2_planes;
  else if (a.workload == "campaign_cold")
    run = run_campaign_cold;
  else if (a.workload == "daemon_warm")
    run = run_daemon_warm;
  else
    return usage("unknown --workload");
  try {
    std::printf("%s\n", result_json(a, run(a)).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
