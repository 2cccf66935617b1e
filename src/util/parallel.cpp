#include "util/parallel.hpp"

#include <cstdlib>

namespace dramstress::util {

namespace {

// 0 = no explicit override; resolution falls through to the environment
// and then to the hardware.
std::atomic<int> g_default_threads{0};

int env_threads() {
  const char* s = std::getenv("DRAMSTRESS_THREADS");
  if (!s || !*s) return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < 1 || v > kMaxThreads) return 0;
  return static_cast<int>(v);
}

}  // namespace

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int default_threads() {
  const int overridden = g_default_threads.load(std::memory_order_relaxed);
  if (overridden > 0) return overridden;
  const int env = env_threads();
  if (env > 0) return env;
  return hardware_threads();
}

void set_default_threads(int n) {
  g_default_threads.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

int resolve_threads(int requested) {
  return requested > 0 ? requested : default_threads();
}

int resolve_batch(int requested) { return requested; }

}  // namespace dramstress::util
