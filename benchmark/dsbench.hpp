// Shared pieces of dsbench, the program behind benchmark/run.py.
//
// A workload function sets its inputs up, repeats one user-visible
// operation for the requested seconds, timing further set-ups between
// the operations (the setup_s samples), checks every output, and fills a
// Result.  dsbench.cpp
// prints the Result as one JSON line; run.py turns the raw samples into
// the metrics BENCHMARK.json names.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dsbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;      // shrunk inputs: every workload in seconds
  std::string specs_dir;   // benchmark/specs (campaign and daemon inputs)
  int threads = 1;         // min(4, hardware threads), pinned process-wide
};

struct Result {
  std::vector<double> setup_s;  // one sample per timed set-up
  std::vector<double> op_ms;    // one latency per measured operation
  double measure_s = 0.0;       // wall time of the measured operations
  double cpu_s = 0.0;           // process CPU (user + sys) over them
  long attempted = 0;           // checked outputs (see README: failed ops)
  long failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  std::string digest;  // hash of the first operation's outputs
  /// Border resistances checked against benchmark/reference.json
  /// (nullopt = the search reported no border).
  std::map<std::string, std::optional<double>> brs;
  /// Report polls per daemon round trip (daemon_warm only).
  double polls_per_request = 0.0;
  /// obs counter deltas over the measured phase.
  std::map<std::string, long> counters;
  /// Layer tables of the traced binary, one per measured phase (JSON
  /// object text); empty in the untraced binary.
  std::vector<std::string> layers;

  void fail(const std::string& why);
};

/// Bracket a measured phase: zero the layer baseline and the obs counter
/// baseline at begin; at end, add the counter deltas into `r` and append
/// the phase's layer table.
void phase_begin();
void phase_end(Result& r);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (user + system) in seconds.
double process_cpu_s();

/// FNV-1a 64 over `data`, continuing from `h`.
uint64_t fnv1a(const std::string& data,
               uint64_t h = 14695981039346656037ull);
std::string hex64(uint64_t h);

/// Whole file as a string; throws dramstress::ModelError when unreadable.
std::string read_file(const std::string& path);

/// Deterministic generator for seeded inputs (splitmix64): the same seed
/// gives the same inputs on every platform, unlike std distributions.
class Rng {
public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next();
  /// Uniform in [0, n).
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

private:
  uint64_t s_;
};

/// Moves the calling thread onto each CPU it may run on, in turn, and
/// gives it back its own CPU mask when destroyed.  When the mask cannot
/// be read, size() is 1 and pin() leaves the thread where it is.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  size_t size() const { return cpus_.empty() ? 1 : cpus_.size(); }
  /// Pin the calling thread to the i-th CPU of its own mask.
  void pin(size_t i);

private:
  std::vector<int> cpus_;
};

/// Run `op(k)` then `check(k)` for k = 0, 1, ...: first `warmup`
/// operations that are checked but not timed, then timed ones while one
/// more operation of the mean length still ends within `seconds` (at
/// least one, at most `max_ops` when max_ops > 0).  Only `op` is timed:
/// its latency, wall and CPU time go into `r`; the checks stay outside
/// every measurement.
///
/// Before each timed operation, and after the last, one setup_s sample
/// is taken: `setup()` once on each CPU of the process, the mean of
/// those times.  A set-up is serial, and the vCPUs of a shared host ran
/// at speeds up to 1.7x apart, which vCPUs being the fast ones changing
/// from minute to minute; left to the scheduler, a run's set-ups landed
/// on one or the other and its setup_s moved with them.  The samples are
/// spread over the run, so they meet the machine speeds the operations
/// meet, and taken between operations, so they never compete with the
/// operation's threads for a core.
template <class Setup, class Op, class Check>
void measure(Result& r, double seconds, int max_ops, int warmup,
             Setup&& setup, Op&& op, Check&& check) {
  for (int k = 0; k < warmup; ++k) {
    op(k);
    check(k);
  }
  const auto sample_setup = [&] {
    CpuRotation cpus;
    double total = 0.0;
    for (size_t i = 0; i < cpus.size(); ++i) {
      cpus.pin(i);
      const Clock::time_point t0 = Clock::now();
      setup();
      total += seconds_since(t0);
    }
    r.setup_s.push_back(total / static_cast<double>(cpus.size()));
  };
  double elapsed = 0.0;  // wall of the timed operations only
  for (int k = warmup;; ++k) {
    sample_setup();
    phase_begin();  // each timed operation is one measured phase
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    op(k);
    const double wall = seconds_since(t0);
    r.cpu_s += process_cpu_s() - cpu0;
    phase_end(r);
    elapsed += wall;
    r.op_ms.push_back(wall * 1e3);
    check(k);
    const int timed = k - warmup + 1;
    if (max_ops > 0 && timed >= max_ops) break;
    if (elapsed + elapsed / timed > seconds) break;
  }
  sample_setup();
  r.measure_s = elapsed;
}

Result run_fig2_planes(const Args& a);
Result run_campaign_cold(const Args& a);
Result run_daemon_warm(const Args& a);

}  // namespace dsbench
