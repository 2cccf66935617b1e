// Link-time layer tracer: the one extra translation unit of dsbench_traced.
//
// CMakeLists.txt links dsbench_traced with -Wl,--wrap=SYMBOL for every
// entry of boundaries.def.  The linker then sends each call to SYMBOL
// that crosses an object file to __wrap_SYMBOL below, which times it and
// forwards to __real_SYMBOL, the original.  Nothing under src/ changes.
//
// Accounting.  Each thread keeps a stack of open boundary frames and a
// table of accumulators keyed by (boundary, parent boundary): calls,
// inclusive time, self time (inclusive minus the children's inclusive
// time) and, for border searches, transients run.  A wait boundary is a
// child charged to no layer: a thread blocked in a join or a poll is
// idle, not busy in the layer that called it.  Tables are per-thread
// memory written by their own thread only, folded into a retired total
// when the thread exits, and read once when the measured phase ends.
//
// Idle time.  A thread is present from its first wrapped call to its
// exit; present time minus its waits is busy time.  Over a phase of
// wall W on T threads, util.pool_idle_s = T x W - busy, and the busy time
// no layer claims is bench.unattributed_s, so the layer self times, the
// idle time and the unattributed time add up to T x W.
//
// The __real_ references are weak: when a later refactor removes a
// boundary, nothing calls its __wrap_ and the layer reads calls = 0
// ("not reached") instead of breaking the link.
#include <poll.h>
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/border.hpp"
#include "analysis/result_plane.hpp"
#include "analysis/vsa.hpp"
#include "analysis/vsa_cache.hpp"
#include "campaign/cache.hpp"
#include "campaign/cache_index.hpp"
#include "campaign/plan.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/unit_exec.hpp"
#include "circuit/ensemble_mna.hpp"
#include "circuit/ensemble_transient.hpp"
#include "circuit/mna.hpp"
#include "circuit/transient.hpp"
#include "dram/column_sim.hpp"
#include "dram/ensemble_column.hpp"
#include "numeric/ensemble.hpp"
#include "numeric/sparse.hpp"
#include "service/protocol.hpp"
#include "stress/optimizer.hpp"
#include "stress/probe.hpp"
#include "util/json.hpp"

using namespace dramstress;

namespace {

enum Boundary : int {
#define DS_BOUNDARY(ID, GROUP, SYM, R, P, A) k##ID,
#define DS_WAIT(ID, GROUP, SYM, R, P, A) k##ID,
#include "boundaries.def"
#undef DS_BOUNDARY
#undef DS_WAIT
  kBoundaries
};
constexpr int kRoot = kBoundaries;  // parent of a frame opened at top level

struct Info {
  const char* name;
  const char* group;
  bool wait;
};
constexpr Info kInfo[kBoundaries] = {
#define DS_BOUNDARY(ID, GROUP, SYM, R, P, A) {#ID, GROUP, false},
#define DS_WAIT(ID, GROUP, SYM, R, P, A) {#ID, GROUP, true},
#include "boundaries.def"
#undef DS_BOUNDARY
#undef DS_WAIT
};

bool counts_transients(int id) {
  return id == kBorderFind || id == kBorderAnalyze || id == kSurrogateFind ||
         id == kSurrogateAnalyze;
}

enum Field { kCalls, kInclNs, kSelfNs, kTransients, kFields };
constexpr int kMaxDepth = 64;

/// Per-(boundary, parent) sums; plain integers for snapshots and totals.
struct Totals {
  int64_t v[kBoundaries][kBoundaries + 1][kFields] = {};
};

/// One thread's accumulators.  Only the owning thread writes; the phase
/// reader loads concurrently, so cells are relaxed atomics written with
/// plain load+store (no locked read-modify-write on the hot path).
struct Table {
  std::atomic<int64_t> cell[kBoundaries][kBoundaries + 1][kFields] = {};
  struct Open {
    int id;
    int64_t start_ns;
    int64_t child_ns;
    long transients0;
  };
  Open stack[kMaxDepth];
  int depth = 0;
  int64_t attach_ns = 0;  // first wrapped call of the thread
  // Time in waits since the phase mark (a wait that began before it
  // counts from the mark), and the start of the wait now open, if any.
  std::atomic<int64_t> wait_ns{0};
  std::atomic<int64_t> wait_since_ns{0};

  void add(int id, int parent, Field f, int64_t x) {
    std::atomic<int64_t>& c = cell[id][parent][f];
    c.store(c.load(std::memory_order_relaxed) + x, std::memory_order_relaxed);
  }
  void add_to(Totals& t) const {
    for (int b = 0; b < kBoundaries; ++b)
      for (int p = 0; p <= kBoundaries; ++p)
        for (int f = 0; f < kFields; ++f)
          t.v[b][p][f] += cell[b][p][f].load(std::memory_order_relaxed);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<Table*> live;
  Totals retired;
  std::vector<std::pair<int64_t, int64_t>> retired_spans;  // attach, exit
  int64_t retired_wait_ns = 0;
  Totals mark;
  int64_t mark_wait_ns = 0;
};

std::atomic<int64_t> g_mark_ns{0};  // start of the measured phase
std::atomic<long> g_skipped{0};     // frames beyond kMaxDepth, not recorded

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Never destroyed: threads may still exit after main() returns.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

/// Folds the thread's table into the retired total at thread exit.
struct Retirer {
  Table* table = nullptr;
  ~Retirer() {
    if (table == nullptr) return;
    const int64_t exit_ns = now_ns();
    Registry& r = registry();
    {
      std::lock_guard<std::mutex> lock(r.mu);
      table->add_to(r.retired);
      r.retired_spans.emplace_back(table->attach_ns, exit_ns);
      r.retired_wait_ns += table->wait_ns.load(std::memory_order_relaxed);
      std::erase(r.live, table);
    }
    delete table;
  }
};

thread_local Table* tl_table = nullptr;

Table* attach_thread() {
  static thread_local Retirer retirer;
  auto* t = new Table;
  t->attach_ns = now_ns();
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    r.live.push_back(t);
  }
  retirer.table = t;
  tl_table = t;
  return t;
}

/// One open boundary on the calling thread, closed by the destructor
/// (also when the wrapped call throws).
class Frame {
public:
  explicit Frame(int id) {
    t_ = tl_table != nullptr ? tl_table : attach_thread();
    if (t_->depth >= kMaxDepth) {
      g_skipped.fetch_add(1, std::memory_order_relaxed);
      t_ = nullptr;
      return;
    }
    Table::Open& o = t_->stack[t_->depth++];
    o.id = id;
    o.child_ns = 0;
    o.transients0 = counts_transients(id) ? dram::thread_transients() : 0;
    o.start_ns = now_ns();
    if (kInfo[id].wait)
      t_->wait_since_ns.store(o.start_ns, std::memory_order_relaxed);
  }
  ~Frame() {
    if (t_ == nullptr) return;
    const int64_t end = now_ns();
    const Table::Open& o = t_->stack[--t_->depth];
    const int64_t incl = end - o.start_ns;
    const int parent = t_->depth > 0 ? t_->stack[t_->depth - 1].id : kRoot;
    t_->add(o.id, parent, kCalls, 1);
    t_->add(o.id, parent, kInclNs, incl);
    t_->add(o.id, parent, kSelfNs, incl - o.child_ns);
    if (counts_transients(o.id))
      t_->add(o.id, parent, kTransients,
              dram::thread_transients() - o.transients0);
    if (t_->depth > 0) t_->stack[t_->depth - 1].child_ns += incl;
    if (kInfo[o.id].wait) {
      t_->wait_since_ns.store(0, std::memory_order_relaxed);
      const int64_t from =
          std::max(o.start_ns, g_mark_ns.load(std::memory_order_relaxed));
      t_->wait_ns.store(
          t_->wait_ns.load(std::memory_order_relaxed) + end - from,
          std::memory_order_relaxed);
    }
  }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

private:
  Table* t_ = nullptr;
};

/// Accumulators of every thread so far; `wait_ns` gets the finished
/// waits (each counted from the mark at most).
Totals snapshot(int64_t* wait_ns) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  Totals t = r.retired;
  *wait_ns = r.retired_wait_ns;
  for (const Table* live : r.live) {
    live->add_to(t);
    *wait_ns += live->wait_ns.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace

// --- the wrappers ---------------------------------------------------------

#define DS_BOUNDARY(ID, GROUP, SYM, R, P, A)         \
  extern "C" R __real_##SYM P __attribute__((weak)); \
  extern "C" R __wrap_##SYM P {                      \
    Frame frame(k##ID);                              \
    return __real_##SYM A;                           \
  }
#define DS_WAIT DS_BOUNDARY
#include "boundaries.def"
#undef DS_BOUNDARY
#undef DS_WAIT

// --- the interface dsbench.cpp declares weak ------------------------------

/// Start of the measured phase: later reads report only what follows.
extern "C" void dsbench_layers_mark() {
  g_mark_ns.store(now_ns(), std::memory_order_relaxed);
  int64_t wait_ns = 0;
  Totals t = snapshot(&wait_ns);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.mark = t;
  r.mark_wait_ns = wait_ns;
}

/// Everything since the mark, as a JSON object:
///   {"phase_s", "present_s", "wait_s", "skipped_frames", "boundaries":
///    [{"name", "group", "wait", "parents": [{"parent", "calls", "incl_s",
///    "self_s", "transients"}]}]}
/// present_s sums, over threads, the part of the phase each was present;
/// wait_s the part each spent in waits, those still open included.
extern "C" void dsbench_layers_json(std::string* out) {
  int64_t wait_ns = 0;
  Totals now = snapshot(&wait_ns);
  const int64_t end = now_ns();
  const int64_t mark_ns = g_mark_ns.load(std::memory_order_relaxed);
  Registry& r = registry();
  int64_t present_ns = 0;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    wait_ns -= r.mark_wait_ns;
    for (int b = 0; b < kBoundaries; ++b)
      for (int p = 0; p <= kBoundaries; ++p)
        for (int f = 0; f < kFields; ++f) now.v[b][p][f] -= r.mark.v[b][p][f];
    const auto overlap = [&](int64_t from, int64_t to) {
      return std::max<int64_t>(0, std::min(to, end) - std::max(from, mark_ns));
    };
    for (const auto& [from, to] : r.retired_spans) present_ns += overlap(from, to);
    for (const Table* t : r.live) {
      present_ns += overlap(t->attach_ns, end);
      const int64_t open = t->wait_since_ns.load(std::memory_order_relaxed);
      if (open != 0) wait_ns += overlap(open, end);
    }
  }
  util::json::Writer w;
  w.begin_object();
  w.key("phase_s").value(1e-9 * static_cast<double>(end - mark_ns));
  w.key("present_s").value(1e-9 * static_cast<double>(present_ns));
  w.key("wait_s").value(1e-9 * static_cast<double>(wait_ns));
  w.key("skipped_frames").value(g_skipped.load(std::memory_order_relaxed));
  w.key("boundaries").begin_array();
  for (int b = 0; b < kBoundaries; ++b) {
    w.begin_object();
    w.key("name").value(kInfo[b].name);
    w.key("group").value(kInfo[b].group);
    w.key("wait").value(kInfo[b].wait);
    w.key("parents").begin_array();
    for (int p = 0; p <= kBoundaries; ++p) {
      const int64_t* v = now.v[b][p];
      if (v[kCalls] == 0) continue;
      w.begin_object();
      w.key("parent").value(p == kRoot ? "root" : kInfo[p].name);
      w.key("calls").value(static_cast<long>(v[kCalls]));
      w.key("incl_s").value(1e-9 * static_cast<double>(v[kInclNs]));
      w.key("self_s").value(1e-9 * static_cast<double>(v[kSelfNs]));
      w.key("transients").value(static_cast<long>(v[kTransients]));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  *out = w.str();
}
