#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace unisamp {

namespace {

std::atomic<std::size_t> g_thread_override{0};

// Largest worker count the env var may request: values above the cap are
// CLAMPED to it (the user asked for "many threads"; 1024 is closer to that
// intent than silently reverting to hardware_concurrency).  Negative or
// non-numeric values are rejected and fall back to automatic resolution.
// Keep this in sync with the trial_threads() doc in parallel.hpp.
constexpr std::size_t kMaxEnvThreads = 1024;

std::size_t env_threads() {
  const char* value = std::getenv("UNISAMP_THREADS");
  if (value == nullptr) return 0;
  const char* p = value;
  while (*p == ' ' || *p == '\t') ++p;
  if (*p < '0' || *p > '9') return 0;  // rejects '-': strtoul would wrap
  errno = 0;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(p, &end, 10);
  if (end == p || *end != '\0') return 0;
  // Out-of-range values are still "above the cap": clamp them like any
  // other oversized request instead of silently ignoring the variable.
  if (errno == ERANGE || parsed > kMaxEnvThreads) return kMaxEnvThreads;
  return static_cast<std::size_t>(parsed);
}

}  // namespace

std::size_t trial_threads() {
  const std::size_t override_count = g_thread_override.load();
  if (override_count > 0) return override_count;
  const std::size_t from_env = env_threads();
  if (from_env > 0) return from_env;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

void set_trial_threads(std::size_t count) { g_thread_override.store(count); }

void parallel_for_index(std::size_t count, std::size_t max_workers,
                        const std::function<void(std::size_t)>& body) {
  if (count == 0) return;

  const std::size_t workers = std::min(max_workers, count);
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker_loop = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  // The calling thread is a worker too; alone, it visits indices in order.
  std::vector<std::thread> pool;
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      pool.emplace_back(worker_loop);
    } catch (const std::system_error&) {
      break;  // thread exhaustion: degrade to the workers already running
    }
  }
  worker_loop();
  for (std::thread& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& body) {
  parallel_for_index(count, trial_threads(), body);
}

}  // namespace unisamp
