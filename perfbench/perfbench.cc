// perfbench: the profiler's end-to-end cost, and where it goes.
//
// One process drives the whole pipeline through the public API, once per
// profiled iteration:
//
//   Recorder::create -> Drainer::start (spill only) -> Recorder::attach
//   -> Phoenix kernels inside tee::Enclave::ecall -> Recorder::detach
//   -> Drainer::final_drain (spill only) -> Recorder::dump
//   -> StreamAnalyzer::analyze -> MergeableProfile::save / merge
//   -> flamegraph::render_svg
//
// Each profiled iteration is followed by kDetachedPerProfiled detached ones
// (the same ecall and input, probes compiled in, no session attached).
// Every layer is timed from outside, around its public calls. The paper's
// TEE configuration is used throughout: the software counter (rdtsc is
// illegal in SGXv1), the auto shard layout, 2 application threads.
//
// Usage (from the repository root, after building; see run.py):
//   perfbench --workload phoenix_dense --seed 1 --seconds 10 --trace 0
//             [--workdir DIR] [--tiny]
//
// A run is kSubRuns sub-runs in fresh child processes, each measuring an
// equal share of --seconds, because some costs are fixed per process: the
// TEE simulator calibrates its spin loop once per process (Recorder::dump's
// calibration retries spin on it), and ASLR fixes stack and heap layout. A
// timing is reported as the median over all sub-runs' iterations, balanced
// over stack alignments (see Bench::run_app and Series::center).
//
// --trace 0 prints the end-to-end metrics as the last stdout line (JSON);
// --trace 1 alternates traced and untraced iterations, keeps one span per
// layer call, prints a per-layer self-time table and the tracing overhead,
// writes the spans to DIR/trace/, and prints the per-layer metrics as JSON.
// Session, chunk, .mprof and SVG files live in DIR/run.<pid>/, removed at
// exit. Any failed output check makes "correct" false and the exit code 1.
#include <alloca.h>
#include <dirent.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analyzer/mprof.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "core/profiler.h"
#include "drain/drainer.h"
#include "flamegraph/flamegraph.h"
#include "monitord/monitor.h"
#include "phoenix/phoenix.h"
#include "placement.h"
#include "tee/enclave.h"

extern char** environ;

using namespace teeperf;
namespace fs = std::filesystem;

namespace {

constexpr usize kAppThreads = 2;
constexpr int kSubRuns = 8;
constexpr int kDetachedPerProfiled = 3;

// Iterations cycle through this many stack alignments of the app's main
// thread (see Bench::run_app).
constexpr int kStackPads = 4;

// Fixed poll periods for the spill workload's side observer.
constexpr auto kLagPollPeriod = std::chrono::milliseconds(5);
constexpr int kScrapeEveryPolls = 4;  // monitord scrape every 20 ms

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

// ---- tracing ----------------------------------------------------------------

// One timed call into a layer. The spans of one iteration share `iter`; the
// iteration's own span (parent 0) is named after its kind and carries the
// iteration number. Thread 0 is the sub-run's main thread — the blocking
// path — and thread 1 the side observer polling beside it. Ids are unique
// within a sub-run.
struct Span {
  char name[32] = {};
  u64 id = 0;
  u64 parent = 0;
  u64 iter = 0;
  int sub = 0;
  int thread = 0;
  double start = 0;
  double end = 0;
};

Span make_span(const char* name, u64 id, u64 parent, u64 iter, int thread, double start,
               double end) {
  Span s;
  std::snprintf(s.name, sizeof s.name, "%s", name);
  s.id = id;
  s.parent = parent;
  s.iter = iter;
  s.thread = thread;
  s.start = start;
  s.end = end;
  return s;
}

class Tracer {
 public:
  u64 next_id() { return ids_.fetch_add(1, std::memory_order_relaxed) + 1; }

  void add(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::atomic<u64> ids_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// The spans of one iteration on the main thread. time() always measures (the
// metrics need the numbers); it keeps a span only when the iteration is
// traced, so an untraced iteration pays two clock reads per layer call and
// nothing else.
class Iteration {
 public:
  Iteration(Tracer* tr, bool traced, const char* kind, u64 iter)
      : tr_(tr), traced_(traced), kind_(kind), iter_(iter),
        id_(tr->next_id()), start_(now_s()) {}

  template <typename F>
  double time(const char* layer, F&& fn) {
    double t0 = now_s();
    fn();
    double t1 = now_s();
    if (traced_) tr_->add(make_span(layer, tr_->next_id(), id_, iter_, 0, t0, t1));
    return t1 - t0;
  }

  // Closes the iteration span.
  void close() {
    if (traced_) tr_->add(make_span(kind_, id_, 0, iter_, 0, start_, now_s()));
  }

 private:
  Tracer* tr_;
  bool traced_;
  const char* kind_;
  u64 iter_;
  u64 id_;
  double start_;
};

// A span's self time: its duration minus the union of its children.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::map<std::pair<int, u64>, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans) {
    if (s.parent) kids[{s.sub, s.parent}].push_back({s.start, s.end});
  }
  std::vector<double> out;
  for (const Span& s : spans) {
    auto& iv = kids[{s.sub, s.id}];
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo_run = 0, hi_run = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (lo > hi_run) {
        if (hi_run > lo_run) covered += hi_run - lo_run;
        lo_run = lo;
        hi_run = hi;
      } else {
        hi_run = std::max(hi_run, hi);
      }
    }
    if (hi_run > lo_run) covered += hi_run - lo_run;
    out.push_back((s.end - s.start) - covered);
  }
  return out;
}

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  usize n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The highest percentile with at least ten samples beyond it (0 if none).
int top_percentile(usize n) {
  if (n < 20) return 0;
  return static_cast<int>(100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

double percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  usize i = static_cast<usize>(std::ceil(p / 100.0 * static_cast<double>(v.size()))) - 1;
  return v[std::min(i, v.size() - 1)];
}

// Per-iteration samples, each tagged with its stack alignment.
struct Series {
  std::vector<int> cls;
  std::vector<double> v;

  void add(int c, double x) {
    cls.push_back(c);
    v.push_back(x);
  }

  // The mean over stack alignments of the median within each, over the
  // samples of every sub-run. A median, not a mean: a thread handed work on
  // an idle vCPU sometimes waits milliseconds for it to wake.
  double center() const {
    std::map<int, std::vector<double>> by_cls;
    for (usize i = 0; i < v.size(); ++i) by_cls[cls[i]].push_back(v[i]);
    double sum = 0;
    for (const auto& [c, xs] : by_cls) sum += median(xs);
    return by_cls.empty() ? 0 : sum / static_cast<double>(by_cls.size());
  }
};

// ---- workloads --------------------------------------------------------------

// One Phoenix kernel over a pre-generated input. run() returns the kernel's
// checksum and sets *hot_calls to the number of calls its hot helper must
// record (0 = the helper's count is not derivable from the output, so only
// its presence is checked).
struct Kernel {
  std::string name;
  std::string hot_frame;
  u64 calls_bound = 0;  // upper bound on scoped calls per run
  std::function<u64(u64* hot_calls)> run;
};

struct Workload {
  std::string name;
  std::vector<Kernel> kernels;
  bool spill = false;
};

Kernel string_match_kernel(usize words, u64 seed) {
  auto in = std::make_shared<phoenix::StringMatchInput>(
      phoenix::gen_string_match(words, seed));
  return {"string_match", "phoenix::string_match::match_word", words + 8,
          [in](u64* hot) {
            auto r = phoenix::run_string_match(*in, kAppThreads);
            *hot = r.words_scanned;
            return r.checksum();
          }};
}

Kernel word_count_kernel(usize words, u64 seed) {
  auto in = std::make_shared<phoenix::WordCountInput>(
      phoenix::gen_word_count(words, seed));
  return {"word_count", "phoenix::word_count::count_word",
          words + words / 8 + 16, [in](u64* hot) {
            auto r = phoenix::run_word_count(*in, kAppThreads);
            *hot = r.total_words;
            return r.checksum();
          }};
}

Kernel linreg_kernel(usize points, u64 seed) {
  auto in = std::make_shared<phoenix::LinRegInput>(phoenix::gen_linreg(points, seed));
  return {"linear_regression", "phoenix::linear_regression::accumulate_chunk", 8,
          [in](u64* hot) {
            *hot = 0;
            return phoenix::run_linreg(*in, kAppThreads).checksum();
          }};
}

Kernel matmul_kernel(usize n, u64 seed) {
  auto in = std::make_shared<phoenix::MatMulInput>(phoenix::gen_matmul(n, seed));
  return {"matrix_multiply", "phoenix::matrix_multiply::multiply_row", n + 8,
          [in](u64* hot) {
            *hot = in->n;
            return phoenix::run_matmul(*in, kAppThreads).checksum();
          }};
}

Kernel histogram_kernel(usize pixels, u64 seed) {
  auto in = std::make_shared<phoenix::HistogramInput>(
      phoenix::gen_histogram(pixels, seed));
  return {"histogram", "phoenix::histogram::accumulate_row", pixels / 256 + 16,
          [in](u64* hot) {
            *hot = 0;
            return phoenix::run_histogram(*in, kAppThreads).checksum();
          }};
}

constexpr const char* kWorkloads[] = {"phoenix_dense", "phoenix_sparse", "phoenix_spill"};

// Inputs derive from the seed only. --tiny shrinks them for the smoke test,
// but keeps the profiled app well past the software counter's start latency
// (counter.start_s): a session shorter than that records no time at all.
std::optional<Workload> make_workload(const std::string& name, u64 seed, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "phoenix_dense" || name == "phoenix_spill") {
    // Figure 4's worst rows: one probed call per word.
    usize d = tiny ? 8 : 1;
    w.kernels.push_back(string_match_kernel(600'000 / d, seed));
    w.kernels.push_back(word_count_kernel(200'000 / d, seed ^ 0x5eed));
    w.spill = name == "phoenix_spill";
  } else if (name == "phoenix_sparse") {
    // Figure 4's cheap rows: few calls, so only fixed costs show.
    usize d = tiny ? 2 : 1;
    w.kernels.push_back(linreg_kernel(4'000'000 / d, seed));
    w.kernels.push_back(matmul_kernel(tiny ? 256 : 320, seed ^ 0x5eed));
    w.kernels.push_back(histogram_kernel(3'000'000 / d, seed ^ 0xbeef));
  } else {
    return std::nullopt;
  }
  return w;
}

// The recorder's auto layout (pick_shard_count): a power of two covering the
// hardware concurrency, at most 64 shards.
u64 auto_shards() {
  u32 hw = std::max(1u, std::thread::hardware_concurrency());
  u64 n = 1;
  while (n < hw && n < 64) n <<= 1;
  return n;
}

u64 next_pow2(u64 v) {
  u64 p = 1;
  while (p < v) p <<= 1;
  return p;
}

// ---- per-iteration records --------------------------------------------------

struct Profiled {
  bool traced = false;
  int cls = 0;  // stack alignment class
  double create = 0, drain_start = 0, attach = 0, app = 0, detach = 0,
         final_drain = 0, dump = 0, analyze = 0, save = 0, merge = 0,
         render = 0, destroy = 0;
  double setup = 0, report = 0;
  double cpu_s = 0;
  u64 minor_faults = 0, ctx_switches = 0;
  u64 events = 0, entries = 0, dropped = 0, torn_tail = 0;
  u64 dump_bytes = 0;
  u64 drain_entries = 0, drain_bytes = 0, drain_chunks = 0, lag_max = 0;
  u64 methods = 0, edges = 0, stacks = 0, incomplete = 0;
  u64 mprof_bytes = 0, svg_bytes = 0;
  double ns_per_tick = 0;
};

struct Detached {
  bool traced = false;
  int cls = 0;
  double app = 0;
};

struct Usage {
  double cpu_s = 0;
  u64 minflt = 0, csw = 0;
  long maxrss_kb = 0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.minflt = static_cast<u64>(ru.ru_minflt);
  u.csw = static_cast<u64>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

u64 file_size(const std::string& path) {
  std::error_code ec;
  auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<u64>(n);
}

// Everything one sub-run hands back to the parent, written to a file as raw
// bytes (parent and child are the same binary).
struct SubResult {
  std::vector<Profiled> profiled;
  std::vector<Detached> detached;
  std::vector<Span> spans;
  std::vector<double> scrape_s, flame_s;
  std::vector<u64> ref_sums;
  std::vector<std::string> failures;
  double counter_start_s = 0;
  long maxrss_kb = 0;
  u64 attempted = 0, failed_ops = 0, failed_checks = 0;
  u64 log_entries = 0;
  u64 events = 0, methods = 0, edges = 0;  // must repeat across sub-runs
  u64 flames = 0;  // non-empty monitord flame windows of a live session

  template <typename T>
  static void put(std::string* b, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    b->append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  template <typename T>
  static void put_vec(std::string* b, const std::vector<T>& v) {
    put<u64>(b, v.size());
    for (const T& x : v) put(b, x);
  }

  std::string serialize() const {
    std::string b;
    put_vec(&b, profiled);
    put_vec(&b, detached);
    put_vec(&b, spans);
    put_vec(&b, scrape_s);
    put_vec(&b, flame_s);
    put_vec(&b, ref_sums);
    put<u64>(&b, failures.size());
    for (const std::string& f : failures) {
      put<u64>(&b, f.size());
      b += f;
    }
    put(&b, counter_start_s);
    put(&b, maxrss_kb);
    for (u64 x : {attempted, failed_ops, failed_checks, log_entries, events, methods, edges,
                  flames}) {
      put(&b, x);
    }
    return b;
  }

  // Reads what serialize() wrote; nullopt on a short or oversized file.
  static std::optional<SubResult> parse(std::string_view b) {
    bool ok = true;
    auto get = [&]<typename T>(T* v) {
      if (b.size() < sizeof(T)) {
        ok = false;
        return;
      }
      std::memcpy(v, b.data(), sizeof(T));
      b.remove_prefix(sizeof(T));
    };
    auto get_vec = [&]<typename T>(std::vector<T>* v) {
      u64 n = 0;
      get(&n);
      if (!ok || n > b.size() / sizeof(T)) {
        ok = false;
        return;
      }
      v->resize(n);
      for (T& x : *v) get(&x);
    };
    SubResult r;
    get_vec(&r.profiled);
    get_vec(&r.detached);
    get_vec(&r.spans);
    get_vec(&r.scrape_s);
    get_vec(&r.flame_s);
    get_vec(&r.ref_sums);
    u64 nf = 0;
    get(&nf);
    for (u64 i = 0; ok && i < nf; ++i) {
      u64 len = 0;
      get(&len);
      if (!ok || len > b.size()) return std::nullopt;
      r.failures.emplace_back(b.substr(0, len));
      b.remove_prefix(len);
    }
    get(&r.counter_start_s);
    get(&r.maxrss_kb);
    for (u64* x : {&r.attempted, &r.failed_ops, &r.failed_checks, &r.log_entries, &r.events,
                   &r.methods, &r.edges, &r.flames}) {
      get(x);
    }
    if (!ok || !b.empty()) return std::nullopt;
    return r;
  }
};

// ---- one sub-run ------------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string workdir = ".bench_build";
  int sub = -1;  // >= 0: run as that sub-run, writing its SubResult to result
  std::string result;
};

class Bench {
 public:
  Bench(const Args& args, Workload w) : args_(args), w_(std::move(w)) {}
  SubResult run();

 private:
  void fail(const std::string& what) {
    if (r_.failures.size() < 20) r_.failures.push_back(what);
    ++r_.failed_checks;
  }
  void app(std::vector<u64>* sums, std::vector<u64>* hot);
  void run_app(int cls, std::vector<u64>* sums, std::vector<u64>* hot);
  void check_app(const char* kind, const std::vector<u64>& sums,
                 const std::vector<u64>& hot);
  RecorderOptions recorder_options() const;
  double counter_start();
  Profiled profiled(u64 iter, bool traced, int cls);
  Detached detached(u64 iter, bool traced, int cls);
  void check_profile(const Profiled& p, const analyzer::MergeableProfile& mp,
                     const std::string& mprof_bytes, const std::string& svg);
  void poller_loop();

  Args args_;
  Workload w_;
  SubResult r_;
  tee::Enclave enclave_{tee::CostModel::sgx_like()};
  Tracer tracer_;
  std::string run_dir_;
  std::string session_dir_;
  std::vector<u64> ref_hot_;
  bool shape_seen_ = false;
  analyzer::MergeableProfile fleet_;  // every iteration's profile, merged

  // Spill only: the side observer (drainer lag sampling and monitord scrapes
  // at fixed periods) and what it may touch, guarded by live_mu_.
  std::unique_ptr<monitord::Monitord> monitord_;
  std::mutex live_mu_;
  std::condition_variable live_cv_;
  bool stop_poller_ = false;
  drain::Drainer* live_drainer_ = nullptr;
  std::string live_session_;
  u64 live_iter_ = 0;
  u64 live_lag_max_ = 0;
  u64 scrape_pages_ok_ = 0;  // written by the poller only
};

void Bench::app(std::vector<u64>* sums, std::vector<u64>* hot) {
  sums->assign(w_.kernels.size(), 0);
  hot->assign(w_.kernels.size(), 0);
  for (usize i = 0; i < w_.kernels.size(); ++i) {
    (*sums)[i] = w_.kernels[i].run(&(*hot)[i]);
  }
}

// Runs the app inside the enclave with the main thread's stack moved down by
// 16 * (cls + 1) bytes. Phoenix string_match keeps its encrypted keys on the
// main thread's stack, where the main thread's per-word writes share cache
// lines with them at two of the four 16-byte alignments modulo 64: measured
// with pinned threads, 24 ms against 10 ms per run. ASLR fixes a process's
// alignment, so without cycling a whole run sat in one mode or the other.
__attribute__((noinline)) void Bench::run_app(int cls, std::vector<u64>* sums,
                                              std::vector<u64>* hot) {
  void* pad = alloca(16 * (cls + 1));
  asm volatile("" : : "r"(pad) : "memory");
  perfbench::placement::set_app(true);
  enclave_.ecall([&] { app(sums, hot); });
  perfbench::placement::set_app(false);
}

void Bench::check_app(const char* kind, const std::vector<u64>& sums,
                      const std::vector<u64>& hot) {
  for (usize i = 0; i < sums.size(); ++i) {
    if (sums[i] != r_.ref_sums[i] || hot[i] != ref_hot_[i]) {
      fail(std::string(kind) + " " + w_.kernels[i].name +
           " checksum differs from the reference run");
    }
  }
}

Detached Bench::detached(u64 iter, bool traced, int cls) {
  Detached d;
  d.traced = traced;
  d.cls = cls;
  Iteration it(&tracer_, traced, "iteration.detached", iter);
  std::vector<u64> sums, hot;
  d.app = it.time("app.ecall_detached", [&] { run_app(cls, &sums, &hot); });
  it.time("bench.check", [&] { check_app("detached", sums, hot); });
  it.close();
  return d;
}

RecorderOptions Bench::recorder_options() const {
  RecorderOptions opts;
  opts.max_entries = r_.log_entries;
  opts.counter_mode = CounterMode::kSoftware;
  // The paper's pure tight loop: the counter owns a spare core (2 app
  // threads on 4). With the default yield stride the counter thread, once it
  // yields, can wait out a whole scheduler slice behind an app thread, and
  // the clock advances in bursts of 4096 ticks.
  opts.software_counter_yield = 0;
  opts.spill_drain = w_.spill;
  if (w_.spill) {
    // A named, published session, so the monitord beside it can find it.
    opts.shm_name = "auto";
    opts.session_dir = session_dir_;
  } else {
    opts.publish_session = false;
  }
  return opts;
}

// Latency from attach() returning to the software counter's first tick,
// measured on sessions that run no app: the main thread spins on the
// counter word as an app thread would run. Until the first tick every event
// reads the same counter value, so a shorter session records no time.
double Bench::counter_start() {
  std::vector<double> v;
  for (int i = 0; i < 5; ++i) {
    RecorderOptions opts = recorder_options();
    opts.spill_drain = false;
    opts.shm_name.clear();
    opts.publish_session = false;
    auto rec = Recorder::create(opts);
    if (!rec || !rec->attach()) {
      fail("counter start probe: Recorder setup failed");
      return 0;
    }
    const std::atomic<u64>& counter = rec->log().header()->counter;
    u64 c0 = counter.load(std::memory_order_relaxed);
    double t0 = now_s();
    while (counter.load(std::memory_order_relaxed) == c0 && now_s() - t0 < 1.0) {
    }
    v.push_back(now_s() - t0);
  }
  return median(v);
}

Profiled Bench::profiled(u64 iter, bool traced, int cls) {
  Profiled p;
  p.traced = traced;
  p.cls = cls;
  Iteration it(&tracer_, traced, "iteration.profiled", iter);
  std::string dir = run_dir_ + "/it" + std::to_string(iter);
  make_dirs(dir);
  std::string prefix = dir + "/session";

  RecorderOptions opts = recorder_options();
  std::unique_ptr<Recorder> rec;
  std::unique_ptr<drain::Drainer> dr;
  bool ok = true;
  p.create = it.time("core.create", [&] { rec = Recorder::create(opts); });
  if (!rec) {
    fail("Recorder::create failed");
    it.close();
    return p;
  }
  perfbench::placement::set_session(true);
  if (w_.spill) {
    drain::DrainerOptions dopts;
    dopts.prefix = prefix;
    dr = std::make_unique<drain::Drainer>(&rec->log(), dopts);
    drain::Drainer* d = dr.get();
    rec->set_drain_sampler([d] {
      drain::Drainer::Stats st = d->stats();
      return Recorder::DrainSample{st.lag_entries, st.spilled_bytes,
                                   st.drained_entries};
    });
    p.drain_start = it.time("drain.start", [&] { ok = dr->start(); });
    if (!ok) fail("Drainer::start failed");
  }
  p.attach = it.time("core.attach", [&] { ok = rec->attach(); });
  if (!ok) fail("Recorder::attach failed");
  p.setup = p.create + p.drain_start + p.attach;

  if (w_.spill) {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_drainer_ = dr.get();
    live_session_ = rec->session_name();
    live_iter_ = iter;
    live_lag_max_ = 0;
  }
  std::vector<u64> sums, hot;
  Usage u0 = usage();
  p.app = it.time("app.ecall", [&] { run_app(cls, &sums, &hot); });
  Usage u1 = usage();
  p.cpu_s = u1.cpu_s - u0.cpu_s;
  p.minor_faults = u1.minflt - u0.minflt;
  p.ctx_switches = u1.csw - u0.csw;

  double report_t0 = now_s();
  p.detach = it.time("core.detach", [&] { rec->detach(); });
  perfbench::placement::set_session(false);
  if (dr) {
    p.final_drain = it.time("drain.final", [&] { ok = dr->final_drain(); });
    if (!ok) fail("Drainer::final_drain failed");
    std::lock_guard<std::mutex> lock(live_mu_);
    live_drainer_ = nullptr;
    p.lag_max = live_lag_max_;
  }
  Recorder::Stats st = rec->stats();
  p.events = st.attempted;
  p.dropped = st.dropped;
  p.torn_tail = st.torn_tail;
  if (dr) {
    drain::Drainer::Stats ds = dr->stats();
    p.drain_entries = ds.drained_entries;
    p.drain_bytes = ds.spilled_bytes;
    p.drain_chunks = ds.chunks;
    p.lag_max = std::max(p.lag_max, ds.lag_entries);
  }
  p.entries = st.entries + p.drain_entries;  // residue + drained

  p.dump = it.time("core.dump", [&] { ok = rec->dump(prefix); });
  if (!ok) fail("Recorder::dump failed");
  p.dump_bytes = file_size(prefix + ".log");

  std::optional<analyzer::MergeableProfile> mp;
  std::string err;
  p.analyze = it.time("analyzer.analyze", [&] {
    mp = analyzer::StreamAnalyzer::analyze(prefix, &err);
  });
  std::string mprof_bytes, svg;
  if (!mp) {
    fail("StreamAnalyzer::analyze failed: " + err);
  } else {
    p.save = it.time("mprof.save", [&] {
      mprof_bytes = mp->save();
      ok = write_file(prefix + ".mprof", mprof_bytes);
    });
    if (!ok) fail("writing the .mprof failed");
    p.merge = it.time("mprof.merge", [&] { ok = fleet_.merge(*mp); });
    if (!ok) fail("MergeableProfile::merge overflowed");
    p.render = it.time("flamegraph.render", [&] {
      flamegraph::FoldedStacks folded(mp->stacks.begin(), mp->stacks.end());
      flamegraph::SvgOptions so;
      so.title = w_.name;
      so.ns_per_tick = mp->ns_per_tick;
      svg = flamegraph::render_svg(folded, so);
      ok = write_file(prefix + ".svg", svg);
    });
    if (!ok) fail("writing the SVG failed");
  }
  p.report = now_s() - report_t0;

  if (mp) {
    p.methods = mp->methods.size();
    p.edges = mp->edges.size();
    p.stacks = mp->stacks.size();
    p.incomplete = mp->stats.incomplete;
    p.ns_per_tick = mp->ns_per_tick;
  }
  p.mprof_bytes = mprof_bytes.size();
  p.svg_bytes = svg.size();
  it.time("bench.check", [&] {
    check_app("profiled", sums, hot);
    if (mp) check_profile(p, *mp, mprof_bytes, svg);
  });

  if (w_.spill) {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_session_.clear();
  }
  p.destroy = it.time("core.destroy", [&] {
    dr.reset();
    rec.reset();
  });
  it.time("bench.cleanup", [&] { remove_tree(dir); });
  it.close();
  return p;
}

void Bench::check_profile(const Profiled& p, const analyzer::MergeableProfile& mp,
                          const std::string& mprof_bytes, const std::string& svg) {
  // Every attempted event was recorded: in memory (dense, sparse), or
  // drained to chunks plus the residue left in shm (spill).
  if (p.dropped || p.torn_tail) fail("events dropped or torn");
  if (p.entries != p.events) {
    fail("recorded entries " + std::to_string(p.entries) + " != attempted " +
         std::to_string(p.events));
  }
  // Every recorded call has its return: the analyzer sees events / 2 calls
  // and repairs nothing.
  u64 calls = 0;
  for (const auto& [name, m] : mp.methods) calls += m.count;
  if (calls * 2 != p.events) {
    fail("analyzer calls " + std::to_string(calls) + " != events/2 (" +
         std::to_string(p.events / 2) + ")");
  }
  if (mp.stats.entries != p.events) fail("analyzer did not see every entry");
  if (mp.stats.stray_returns || mp.stats.mismatched_returns ||
      mp.stats.unwound_frames || mp.stats.incomplete || mp.stats.tombstones) {
    fail("analyzer repaired unmatched calls or returns");
  }
  // Every kernel's root and hot helper are present, the helper with the
  // exact call count the kernel's output implies.
  for (usize i = 0; i < w_.kernels.size(); ++i) {
    const Kernel& k = w_.kernels[i];
    auto m = mp.methods.find(k.hot_frame);
    if (m == mp.methods.end()) {
      fail("frame " + k.hot_frame + " missing");
    } else if (ref_hot_[i] && m->second.count != ref_hot_[i]) {
      fail("frame " + k.hot_frame + " count " + std::to_string(m->second.count) +
           " != " + std::to_string(ref_hot_[i]));
    }
    if (!mp.methods.count("phoenix::" + k.name)) fail("frame phoenix::" + k.name + " missing");
  }
  // The flame graph is a whole document and names the hottest stack's leaf.
  // (Narrower frames are not checked: the renderer drops frames under
  // 0.1 px, and which frames get ticks depends on counter timing.)
  auto hottest = std::max_element(mp.stacks.begin(), mp.stacks.end(),
                                  [](const auto& a, const auto& b) { return a.second < b.second; });
  if (svg.rfind("<svg", 0) != 0 || svg.find("</svg>") == std::string::npos) {
    fail("SVG is not a whole document");
  } else if (hottest != mp.stacks.end()) {
    std::string leaf = hottest->first.substr(hottest->first.rfind(';') + 1);
    if (svg.find(leaf) == std::string::npos) fail("SVG does not name " + leaf);
  } else {
    fail("profile has no folded stacks");
  }
  // .mprof save -> load_bytes round-trips equal.
  std::string err;
  auto back = analyzer::MergeableProfile::load_bytes(mprof_bytes, &err);
  if (!back || !(*back == mp)) fail("mprof round trip differs: " + err);
  // The event and call-graph counts repeat exactly across iterations.
  if (!shape_seen_) {
    shape_seen_ = true;
    r_.events = p.events;
    r_.methods = p.methods;
    r_.edges = p.edges;
  } else if (r_.events != p.events || r_.methods != p.methods || r_.edges != p.edges) {
    fail("event, method or edge counts changed between iterations");
  }
}

void Bench::poller_loop() {
  auto next = std::chrono::steady_clock::now();
  for (u64 tick = 0;; ++tick) {
    next += kLagPollPeriod;
    std::string session;
    u64 iter = 0;
    {
      std::unique_lock<std::mutex> lock(live_mu_);
      if (live_cv_.wait_until(lock, next, [&] { return stop_poller_; })) return;
      if (live_drainer_) {
        live_lag_max_ = std::max(live_lag_max_, live_drainer_->stats().lag_entries);
      }
      session = live_session_;
      iter = live_iter_;
    }
    if (tick % kScrapeEveryPolls != 0) continue;
    auto timed = [&](const char* name, auto&& fn) {
      double t0 = now_s();
      fn();
      double t1 = now_s();
      if (args_.trace) tracer_.add(make_span(name, tracer_.next_id(), 0, iter, 1, t0, t1));
      return t1 - t0;
    };
    std::string page;
    r_.scrape_s.push_back(timed("monitord.scrape", [&] {
      monitord_->poll();
      page = monitord_->scrape_metrics();
    }));
    if (!page.empty()) ++scrape_pages_ok_;
    if (session.empty()) continue;
    std::optional<std::string> folded;
    double s = timed("monitord.flame", [&] { folded = monitord_->flamegraph_folded(session); });
    if (folded) r_.flame_s.push_back(s);
    if (folded && !folded->empty()) ++r_.flames;
  }
}

SubResult Bench::run() {
  run_dir_ = fs::absolute(args_.workdir + "/sub" + std::to_string(args_.sub)).string();
  session_dir_ = run_dir_ + "/sessions";
  if (!make_dirs(session_dir_)) {
    fail("cannot create " + run_dir_);
    return r_;
  }

  u64 calls = 0;
  for (const Kernel& k : w_.kernels) calls += k.calls_bound;
  // Dense and sparse: every shard can hold the whole session, so no tid
  // routing drops an event. Spill: a log far smaller than the session.
  r_.log_entries = w_.spill ? 1u << 16 : next_pow2(2 * calls) * auto_shards();

  // The detached reference run, which also warms the inputs and interns
  // every probe's name. Every later iteration must reproduce its outputs.
  enclave_.ecall([&] { app(&r_.ref_sums, &ref_hot_); });

  std::thread poller;
  if (w_.spill) {
    monitord::MonitordOptions mo;
    mo.session_dir = session_dir_;
    mo.gc = false;  // never sweep segments this run does not own
    mo.flame_interval_ms = 100;  // rebuild the flame window every 5th scrape
    monitord_ = std::make_unique<monitord::Monitord>(mo);
    poller = std::thread([this] { poller_loop(); });
  }

  // Warm-up (not measured): page in inputs and code, start the pools.
  profiled(0, false, 0);
  detached(0, false, 0);
  r_.counter_start_s = counter_start();

  // Traced and untraced iterations alternate under --trace; each group
  // cycles through the stack alignments, at least once.
  double t0 = now_s();
  u64 iter = 1;
  for (;;) {
    u64 group_iter = args_.trace ? (iter - 1) / 2 : iter - 1;
    if (group_iter >= kStackPads && now_s() - t0 >= args_.seconds) break;
    bool traced = args_.trace && iter % 2 == 1;
    int cls = static_cast<int>(group_iter % kStackPads);
    Profiled p = profiled(iter, traced, cls);
    r_.attempted += p.events;
    r_.failed_ops += p.dropped + p.torn_tail;
    r_.profiled.push_back(p);
    for (int k = 0; k < kDetachedPerProfiled; ++k) {
      r_.detached.push_back(detached(iter, traced, cls));
    }
    ++iter;
  }

  if (poller.joinable()) {
    {
      std::lock_guard<std::mutex> lock(live_mu_);
      stop_poller_ = true;
    }
    live_cv_.notify_all();
    poller.join();
    monitord_->poll();  // observes the withdrawn sessions and detaches
    if (monitord_->attached_count() != 0) fail("monitord still attached at exit");
    monitord_.reset();
    if (scrape_pages_ok_ == 0) fail("monitord never produced a metrics page");
  }
  if (fleet_.sessions != iter) fail("merged .mprof does not count every session");
  r_.maxrss_kb = usage().maxrss_kb;
  r_.spans = tracer_.spans();
  for (Span& s : r_.spans) s.sub = args_.sub;
  remove_tree(run_dir_);
  return r_;
}

// ---- the parent: sub-runs, cross-checks and the report ----------------------

// Fails the run if a shared-memory segment of the ended process `pid` is
// left behind, and removes it.
void check_shm(u64 pid, std::vector<std::string>* failures) {
  std::string mine = "teeperf." + std::to_string(pid) + ".";
  std::vector<std::string> leaked;
  if (DIR* d = opendir("/dev/shm")) {
    while (dirent* e = readdir(d)) {
      if (std::string(e->d_name).rfind(mine, 0) == 0) leaked.push_back(e->d_name);
    }
    closedir(d);
  }
  for (const std::string& name : leaked) {
    failures->push_back("leaked /dev/shm segment " + name);
    shm_unlink(("/" + name).c_str());
  }
}

// Runs one sub-run in a child process; nullopt (with a failure noted) if it
// did not hand back a result.
std::optional<SubResult> spawn_sub(const Args& a, int sub, const std::string& dir,
                                   std::vector<std::string>* failures) {
  std::string result = dir + "/sub" + std::to_string(sub) + ".result";
  std::vector<std::string> args = {
      "perfbench", "--workload", a.workload, "--seed", std::to_string(a.seed),
      "--seconds", std::to_string(a.seconds / kSubRuns), "--trace", a.trace ? "1" : "0",
      "--workdir", dir, "--sub", std::to_string(sub), "--result", result};
  if (a.tiny) args.push_back("--tiny");
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0) {
    failures->push_back("cannot start sub-run " + std::to_string(sub));
    return std::nullopt;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  check_shm(static_cast<u64>(pid), failures);
  std::optional<std::string> bytes = read_file(result);
  std::optional<SubResult> r;
  if (bytes) r = SubResult::parse(*bytes);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !r) {
    failures->push_back("sub-run " + std::to_string(sub) + " failed (status " +
                        std::to_string(status) + ")");
    return std::nullopt;
  }
  return r;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  usize samples = 0;
};

template <typename F>
Series collect(const std::vector<Profiled>& v, F&& f) {
  Series out;
  for (const Profiled& p : v) out.add(p.cls, static_cast<double>(f(p)));
  return out;
}

void print_metric(const Metric& m, const std::vector<double>* samples = nullptr) {
  std::printf("  %-28s %16.6g %-8s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples) std::printf(" n=%zu", m.samples);
  if (samples) {
    int p = top_percentile(samples->size());
    if (p) std::printf(" p%d=%.6g", p, percentile(*samples, p));
  }
  std::printf("\n");
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[160];
  for (usize i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::string out = "[\n";
  char buf[320];
  for (usize i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"sub\": %d, \"id\": %" PRIu64 ", \"parent\": %" PRIu64
                  ", \"iter\": %" PRIu64 ", \"thread\": %d, \"start_s\": %.9f, "
                  "\"end_s\": %.9f}%s\n",
                  s.name, s.sub, s.id, s.parent, s.iter, s.thread, s.start, s.end,
                  i + 1 < spans.size() ? "," : "");
    out += buf;
  }
  out += "]\n";
  if (!write_file(path, out)) std::fprintf(stderr, "perfbench: writing %s failed\n", path.c_str());
}

// Per-layer self time over the traced iterations; the iteration span's own
// self time is the part no layer span covers, printed as `unattributed`.
// Returns the median unattributed seconds per profiled iteration.
double print_self_times(const std::vector<Span>& spans) {
  std::vector<double> self = self_times(spans);
  struct Row {
    std::vector<double> per;
    double total = 0;
  };
  std::map<std::string, Row> main_rows, side_rows;
  double wall = 0;
  std::vector<double> unattributed;
  for (usize i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    bool iteration = s.parent == 0 && s.thread == 0;
    if (iteration) {
      wall += s.end - s.start;
      if (std::strcmp(s.name, "iteration.profiled") == 0) unattributed.push_back(self[i]);
    }
    Row& r = (s.thread == 0 ? main_rows : side_rows)[iteration ? "unattributed" : s.name];
    r.per.push_back(self[i]);
    r.total += self[i];
  }
  std::printf("\nper-layer self time over traced iterations (blocking path):\n");
  std::printf("  %-22s %6s %14s %12s %8s\n", "layer", "spans", "median_ms", "total_s", "share");
  double sum = 0;
  for (const auto& [name, r] : main_rows) {
    sum += r.total;
    std::printf("  %-22s %6zu %14.4f %12.4f %7.2f%%\n", name.c_str(), r.per.size(),
                median(r.per) * 1e3, r.total, wall > 0 ? 100 * r.total / wall : 0);
  }
  std::printf("  %-22s %6s %14s %12.4f %7.2f%% of %.4f s iteration wall\n", "sum", "", "",
              sum, wall > 0 ? 100 * sum / wall : 0, wall);
  if (!side_rows.empty()) {
    std::printf("off the blocking path (side observer thread):\n");
    for (const auto& [name, r] : side_rows) {
      std::printf("  %-22s %6zu %14.4f %12.4f\n", name.c_str(), r.per.size(),
                  median(r.per) * 1e3, r.total);
    }
  }
  return median(unattributed);
}

int report(const Args& args, const std::vector<SubResult>& subs,
           std::vector<std::string> failures) {
  std::vector<Profiled> untraced, traced;
  Series det_u, det_t;
  std::vector<double> scrape, flame, rss, counter_start;
  std::vector<Span> spans;
  u64 attempted = 0, failed_ops = 0, failed_checks = failures.size(), flames = 0;
  for (const SubResult& r : subs) {
    for (const Profiled& p : r.profiled) (p.traced ? traced : untraced).push_back(p);
    for (const Detached& d : r.detached) (d.traced ? det_t : det_u).add(d.cls, d.app);
    scrape.insert(scrape.end(), r.scrape_s.begin(), r.scrape_s.end());
    flame.insert(flame.end(), r.flame_s.begin(), r.flame_s.end());
    spans.insert(spans.end(), r.spans.begin(), r.spans.end());
    rss.push_back(static_cast<double>(r.maxrss_kb) / 1024.0);
    counter_start.push_back(r.counter_start_s);
    attempted += r.attempted;
    failed_ops += r.failed_ops;
    flames += r.flames;
    failed_checks += r.failed_checks;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    // Outputs and profile shape repeat exactly across processes.
    const SubResult& first = subs.front();
    if (r.ref_sums != first.ref_sums || r.events != first.events ||
        r.methods != first.methods || r.edges != first.edges) {
      failures.push_back("checksums or profile shape differ between sub-runs");
      ++failed_checks;
    }
  }
  if (args.workload == "phoenix_spill" && flames == 0) {
    failures.push_back("monitord never built a flame window of a live session");
    ++failed_checks;
  }
  // End-to-end metrics come from untraced iterations, per-layer metrics from
  // traced ones; without --trace every iteration is untraced.
  const std::vector<Profiled>& layer = args.trace ? traced : untraced;

  Series setup = collect(untraced, [](const Profiled& p) { return p.setup; });
  Series app = collect(untraced, [](const Profiled& p) { return p.app; });
  Series rep = collect(untraced, [](const Profiled& p) { return p.report; });
  std::vector<Metric> e2e = {
      {"setup_s", "s", setup.center(), setup.v.size()},
      {"app_s", "s", app.center(), app.v.size()},
      {"detached_s", "s", det_u.center(), det_u.v.size()},
      {"report_s", "s", rep.center(), rep.v.size()},
      {"peak_rss_mb", "MB", median(rss), rss.size()},
  };

  auto lc = [&](auto f) { return collect(layer, f).center(); };
  double events = lc([](const Profiled& p) { return p.events; });
  double l_app = lc([](const Profiled& p) { return p.app; });
  double l_det = (args.trace ? det_t : det_u).center();
  double faults = lc([](const Profiled& p) { return p.minor_faults; });
  double ns_per_event =
      events > 0 ? (l_app - l_det) * 1e9 * static_cast<double>(kAppThreads) / events : 0;
  double drained = lc([](const Profiled& p) { return p.drain_entries; });
  double drain_bytes = lc([](const Profiled& p) { return p.drain_bytes; });
  double analyze = lc([](const Profiled& p) { return p.analyze; });
  double entries = lc([](const Profiled& p) { return p.entries; });
  u64 dropped = 0, torn = 0;
  for (const std::vector<Profiled>* v : {&untraced, &traced}) {
    for (const Profiled& p : *v) {
      dropped += p.dropped;
      torn += p.torn_tail;
    }
  }
  usize n = layer.size(), all = untraced.size() + traced.size();
  std::vector<Metric> per_layer = {
      {"core.create_s", "s", lc([](const Profiled& p) { return p.create; }), n},
      {"core.attach_s", "s", lc([](const Profiled& p) { return p.attach; }), n},
      {"core.events", "count", events, n},
      {"core.entries", "count", entries, n},
      {"core.dropped", "count", static_cast<double>(dropped), all},
      {"core.torn_tail", "count", static_cast<double>(torn), all},
      {"core.ns_per_event", "ns", ns_per_event, n},
      {"core.minor_faults", "count", faults, n},
      {"core.minor_faults_per_event", "1/event", events > 0 ? faults / events : 0, n},
      {"core.ctx_switches", "count", lc([](const Profiled& p) { return p.ctx_switches; }), n},
      {"core.cpu_s", "s", lc([](const Profiled& p) { return p.cpu_s; }), n},
      {"core.detach_s", "s", lc([](const Profiled& p) { return p.detach; }), n},
      {"core.dump_s", "s", lc([](const Profiled& p) { return p.dump; }), n},
      {"core.dump_bytes", "bytes", lc([](const Profiled& p) { return p.dump_bytes; }), n},
      {"core.destroy_s", "s", lc([](const Profiled& p) { return p.destroy; }), n},
      {"counter.start_s", "s", median(counter_start), counter_start.size()},
      {"counter.ns_per_tick", "ns", lc([](const Profiled& p) { return p.ns_per_tick; }), n},
      {"drain.start_s", "s", lc([](const Profiled& p) { return p.drain_start; }), n},
      {"drain.entries", "count", drained, n},
      {"drain.bytes", "bytes", drain_bytes, n},
      {"drain.chunks", "count", lc([](const Profiled& p) { return p.drain_chunks; }), n},
      {"drain.bytes_per_entry", "bytes", drained > 0 ? drain_bytes / drained : 0, n},
      {"drain.lag_max_entries", "count", lc([](const Profiled& p) { return p.lag_max; }), n},
      {"drain.final_s", "s", lc([](const Profiled& p) { return p.final_drain; }), n},
      {"analyzer.analyze_s", "s", analyze, n},
      {"analyzer.entries_per_s", "1/s", analyze > 0 ? entries / analyze : 0, n},
      {"analyzer.methods", "count", lc([](const Profiled& p) { return p.methods; }), n},
      {"analyzer.edges", "count", lc([](const Profiled& p) { return p.edges; }), n},
      {"analyzer.stacks", "count", lc([](const Profiled& p) { return p.stacks; }), n},
      {"analyzer.incomplete", "count", lc([](const Profiled& p) { return p.incomplete; }), n},
      {"mprof.save_s", "s", lc([](const Profiled& p) { return p.save; }), n},
      {"mprof.bytes", "bytes", lc([](const Profiled& p) { return p.mprof_bytes; }), n},
      {"mprof.merge_s", "s", lc([](const Profiled& p) { return p.merge; }), n},
      {"flamegraph.render_s", "s", lc([](const Profiled& p) { return p.render; }), n},
      {"flamegraph.svg_bytes", "bytes", lc([](const Profiled& p) { return p.svg_bytes; }), n},
      {"monitord.scrape_s", "s", median(scrape), scrape.size()},
      {"monitord.flame_s", "s", median(flame), flame.size()},
      {"ledger.slowdown", "x", l_det > 0 ? l_app / l_det : 0, n},
  };

  u64 log_entries = subs.empty() ? 0 : subs.front().log_entries;
  const std::string& name = args.workload;
  std::printf("perfbench %s seed=%" PRIu64 " trace=%d: %zu sub-runs, %zu profiled + %zu "
              "detached iterations, %zu app threads, software counter, %" PRIu64
              "-entry log (%" PRIu64 " auto shards)\n",
              name.c_str(), args.seed, args.trace ? 1 : 0, subs.size(), all,
              det_u.v.size() + det_t.v.size(), kAppThreads, log_entries, auto_shards());
  std::printf("checksums:");
  for (usize i = 0; !subs.empty() && i < subs.front().ref_sums.size(); ++i) {
    std::printf(" %016" PRIx64, subs.front().ref_sums[i]);
  }
  std::printf("\nend-to-end (untraced iterations; medians per stack alignment, averaged):\n");
  print_metric(e2e[0], &setup.v);
  print_metric(e2e[1], &app.v);
  print_metric(e2e[2], &det_u.v);
  print_metric(e2e[3], &rep.v);
  print_metric(e2e[4]);
  std::printf("  failed events: %" PRIu64 " of %" PRIu64 " attempted (dropped %" PRIu64
              ", torn tail %" PRIu64 ")\n",
              failed_ops, attempted, dropped, torn);
  std::printf("per-layer (%s iterations; medians per stack alignment, averaged):\n",
              args.trace ? "traced" : "untraced");
  for (const Metric& m : per_layer) print_metric(m);
  // The Figure-4 ledger: is the app-time delta the probe, or first-touch
  // faults on the log? A log entry is 32 bytes, so touching fresh log pages
  // alone costs events * 32 / page_size faults.
  double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  std::printf("ledger %s: slowdown %.3fx (%.4f s / %.4f s, not gated), %.2f ns/event "
              "over %zu threads, %.5f minor faults/event (log first touch alone: %.5f)\n",
              name.c_str(), l_det > 0 ? l_app / l_det : 0, l_app, l_det, ns_per_event,
              kAppThreads, events > 0 ? faults / events : 0, sizeof(LogEntry) / page);

  if (args.trace) {
    double unattributed = print_self_times(spans);
    double ov_app = l_app - app.center();
    double ov_rep = lc([](const Profiled& p) { return p.report; }) - rep.center();
    std::printf("tracing overhead (traced - untraced): app_s %+.6f s, report_s %+.6f s\n",
                ov_app, ov_rep);
    per_layer.push_back({"trace.unattributed_s", "s", unattributed, n});
    per_layer.push_back({"trace.overhead_app_s", "s", ov_app, n});
    per_layer.push_back({"trace.overhead_report_s", "s", ov_rep, n});
    std::string tdir = args.workdir + "/trace";
    make_dirs(tdir);
    std::string path =
        tdir + "/" + name + ".seed" + std::to_string(args.seed) + ".spans.json";
    write_spans(path, spans);
    std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
  }
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  bool correct = failed_checks == 0 && subs.size() == kSubRuns;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed_ops,
              json_metrics(args.trace ? per_layer : e2e).c_str());
  return correct ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--sub") {
      a->sub = std::atoi(v);
    } else if (k == "--result") {
      a->result = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload phoenix_dense|phoenix_sparse|phoenix_spill "
                 "--seed N --seconds S --trace 0|1 [--workdir DIR] [--tiny]\n");
    return 2;
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), args.workload) ==
      std::end(kWorkloads)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.sub >= 0) {
    // A sub-run: only this process places its threads (children inherit a
    // parent's pinned mask, which would disable placement in them).
    perfbench::placement::init();
    SubResult r = Bench(args, *make_workload(args.workload, args.seed, args.tiny)).run();
    return write_file(args.result, r.serialize()) ? 0 : 1;
  }
  std::string dir =
      fs::absolute(args.workdir + "/run." + std::to_string(getpid())).string();
  if (!make_dirs(dir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return 1;
  }
  std::vector<SubResult> subs;
  std::vector<std::string> failures;
  for (int k = 0; k < kSubRuns; ++k) {
    if (auto r = spawn_sub(args, k, dir, &failures)) subs.push_back(std::move(*r));
  }
  remove_tree(dir);
  return report(args, subs, std::move(failures));
}
