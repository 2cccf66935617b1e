// Fork-join task pool for embarrassingly parallel sweeps.
//
// Every experiment of the flow -- result planes, shmoo grids, FFM maps,
// Monte-Carlo variation -- is a loop over independent points.  parallel_for
// runs such a loop on a worker team with chunked work stealing off a shared
// atomic counter.  Determinism contract: the body writes only to its own
// pre-sized slot(s), so results are identical for every thread count.
//
// Thread-count resolution, in priority order:
//   1. ParallelOptions::threads (> 0) at the call site,
//   2. set_default_threads()        (the CLI --threads override),
//   3. the DRAMSTRESS_THREADS environment variable,
//   4. std::thread::hardware_concurrency().
//
// Exceptions thrown by the body abort the sweep (other workers stop at
// their next chunk boundary) and the first exception is rethrown on the
// calling thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace dramstress::util {

/// First-exception-wins capture shared by a worker team.  Workers call
/// capture() from their catch-all; the pool rethrows on the calling thread
/// after the join.  The `failed` flag is read on every chunk boundary, so
/// it stays a lock-free atomic while the exception itself is guarded.
class ExceptionSlot {
public:
  /// Record `e` if no earlier exception was captured, and raise `failed`.
  void capture(std::exception_ptr e) DS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (!error_) error_ = e;
    failed_.store(true, std::memory_order_relaxed);
  }

  /// True once any worker captured; workers poll this to stop early.
  bool failed() const {
    return failed_.load(std::memory_order_relaxed);
  }

  /// Rethrow the first captured exception, if any.  Call after the join
  /// (no concurrent capture), on the thread that owns the pool.
  void rethrow_if_failed() DS_EXCLUDES(mu_) {
    std::exception_ptr e;
    {
      MutexLock lock(mu_);
      e = error_;
    }
    if (e) std::rethrow_exception(e);
  }

private:
  mutable Mutex mu_;
  std::exception_ptr error_ DS_GUARDED_BY(mu_);
  std::atomic<bool> failed_{false};
};

struct ParallelOptions {
  int threads = 0;      // 0 = default_threads()
  size_t min_chunk = 1; // smallest index range a worker grabs at once
};

/// Largest team size DRAMSTRESS_THREADS and the CLI thread-count flags
/// accept; larger values are rejected, not clamped.
constexpr int kMaxThreads = 4096;

/// std::thread::hardware_concurrency(), never less than 1.
int hardware_threads();

/// The team size parallel_for uses when the call site does not override it.
int default_threads();

/// Process-wide override (the CLI --threads flag); n <= 0 restores the
/// automatic DRAMSTRESS_THREADS / hardware_concurrency resolution.
void set_default_threads(int n);

/// requested > 0 ? requested : default_threads().
int resolve_threads(int requested);

/// Always `requested`: there is no process-wide ensemble lane override, so
/// resolve_batch(0) is 0.  A compatibility shim for the benchmark harness,
/// which records the value; it goes away with the next benchmark/ change.
int resolve_batch(int requested);

/// parallel_for_state(n, make_state, body): run body(state, i) for every
/// i in [0, n).  make_state() is invoked once per worker thread (on that
/// thread) to build worker-local scratch -- e.g. a cloned DRAM column --
/// and must be safe to call concurrently.
template <class MakeState, class Body>
void parallel_for_state(size_t n, MakeState&& make_state, Body&& body,
                        const ParallelOptions& opt = {}) {
  if (n == 0) return;
  const int team = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(resolve_threads(opt.threads)), n));
  if (team <= 1) {
    auto state = make_state();
    for (size_t i = 0; i < n; ++i) body(state, i);
    return;
  }

  const size_t chunk = std::max<size_t>(
      std::max<size_t>(opt.min_chunk, 1),
      n / (static_cast<size_t>(team) * 4));
  std::atomic<size_t> next{0};
  ExceptionSlot errors;

  auto worker = [&]() {
    try {
      auto state = make_state();
      for (;;) {
        if (errors.failed()) return;
        const size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) return;
        const size_t end = std::min(n, begin + chunk);
        for (size_t i = begin; i < end; ++i) body(state, i);
      }
    } catch (...) {
      errors.capture(std::current_exception());
    }
  };

  std::vector<std::thread> team_threads;
  team_threads.reserve(static_cast<size_t>(team) - 1);
  for (int t = 1; t < team; ++t) team_threads.emplace_back(worker);
  worker();  // the calling thread is a team member too
  for (std::thread& t : team_threads) t.join();
  errors.rethrow_if_failed();
}

/// Stateless variant: body(i) for every i in [0, n).
template <class Body>
void parallel_for(size_t n, Body&& body, const ParallelOptions& opt = {}) {
  parallel_for_state(
      n, [] { return 0; }, [&](int&, size_t i) { body(i); }, opt);
}

}  // namespace dramstress::util
