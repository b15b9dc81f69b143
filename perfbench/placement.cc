// Interposes pthread_create for the placement rule in placement.h. The
// executable's definition wins symbol resolution, so std::thread (which
// calls pthread_create from libstdc++) and every library linked in come
// through here; the real function is found with dlsym(RTLD_NEXT).
#include "placement.h"

#include <dlfcn.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

namespace perfbench::placement {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_app{false};
std::atomic<bool> g_session{false};

std::mutex g_mu;
std::vector<int> g_cpus;  // allowed CPUs at init, ascending
std::vector<int> g_live;  // live placed threads per g_cpus index; g_mu

struct Start {
  void* (*fn)(void*);
  void* arg;
  std::size_t slot;
};

// Decrements the slot's live count when the thread ends, however it ends.
struct Leave {
  std::size_t slot;
  ~Leave() {
    std::lock_guard<std::mutex> lock(g_mu);
    --g_live[slot];
  }
};

void* trampoline(void* p) {
  Start s = *static_cast<Start*>(p);
  delete static_cast<Start*>(p);
  Leave leave{s.slot};
  return s.fn(s.arg);
}

// Picks the CPU slot for a new thread and counts it live.
std::size_t pick() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::size_t n = g_cpus.size();
  std::size_t best = n - 2;
  if (!g_app.load(std::memory_order_relaxed)) {
    bool session = g_session.load(std::memory_order_relaxed);
    auto load = [&](std::size_t i) { return g_live[i] + (session && i + 2 >= n ? 1 : 0); };
    best = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (load(i) < load(best)) best = i;
    }
  }
  ++g_live[best];
  return best;
}

}  // namespace

void init() {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof all, &all) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) g_cpus.push_back(c);
  }
  if (g_cpus.size() < 3) return;
  g_live.assign(g_cpus.size(), 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(g_cpus.back(), &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) return;
  g_enabled.store(true, std::memory_order_release);
}

void set_app(bool on) { g_app.store(on, std::memory_order_relaxed); }
void set_session(bool on) { g_session.store(on, std::memory_order_relaxed); }

}  // namespace perfbench::placement

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*fn)(void*), void* arg) {
  using Create = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*), void*);
  static const Create real =
      reinterpret_cast<Create>(dlsym(RTLD_NEXT, "pthread_create"));
  namespace pl = perfbench::placement;
  // Callers that bring their own attributes keep them.
  if (!pl::g_enabled.load(std::memory_order_acquire) || attr != nullptr) {
    return real(thread, attr, fn, arg);
  }
  std::size_t slot = pl::pick();
  pthread_attr_t a;
  pthread_attr_init(&a);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(pl::g_cpus[slot], &one);
  pthread_attr_setaffinity_np(&a, sizeof one, &one);
  auto* start = new pl::Start{fn, arg, slot};
  int rc = real(thread, &a, pl::trampoline, start);
  pthread_attr_destroy(&a);
  if (rc != 0) {
    delete start;
    std::lock_guard<std::mutex> lock(pl::g_mu);
    --pl::g_live[slot];
  }
  return rc;
}
