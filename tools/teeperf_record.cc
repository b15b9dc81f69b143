// The recorder wrapper as its own host process (§II-B stage #2) — the
// paper's command-line workflow:
//
//   teeperf_record -o run -- ./my_instrumented_app args...
//
// The session is one Recorder (core/recorder.h) with only its host half
// attached: it creates the shared-memory log, optionally runs the software
// counter (in this process, on the host — the TEE never needs a timer),
// calibrates ticks→ns and persists "run.log". The wrapper launches the
// application with TEEPERF_SHM/TEEPERF_COUNTER/TEEPERF_SYM set and waits
// for it. The application (anything linking teeperf_core, instrumented via
// -finstrument-functions or TEEPERF_SCOPE) self-attaches before main() and
// writes "run.sym" at exit.
//
// Options:
//   -o <prefix>    output prefix                (default: teeperf)
//   -n <entries>   log capacity                 (default: 1048576)
//   -c <counter>   tsc | software | steady_clock (default: tsc)
//   --counter-replicas N   replicated trusted time (DESIGN.md §13, software
//                  counter only): run N counter replicas on distinct cores,
//                  each with a cache-line-isolated shm word; a detector
//                  cross-checks them, fails over when the elected primary
//                  stalls or jumps backwards, and continuously calibrates
//                  ticks→ns so the dump carries wall-clock-accurate time.
//                  0 (default) keeps the classic single counter thread
//   --shards N     log format v2 shard count: per-thread shard segments
//                  with cache-line-private tails (see DESIGN.md "Log format
//                  v2"). 0 = classic v1 single tail; default auto-sizes to
//                  the hardware concurrency
//   --inactive     start with measurement off (flip on later via the log
//                  header flags — dynamic activation)
//   --calls-only / --returns-only   restrict recorded event kinds
//   --filter allow:<names>|deny:<names>   selective profiling in the app
//   --start-after-ms N   activate measurement N ms into the run (implies
//                        --inactive) — the wrapper flips the header flag
//                        while the application executes (§II-B)
//   --stop-after-ms N    deactivate measurement after N ms
//   --ring               ring mode: overwrite oldest entries when full
//                        (keep the newest window of a long run)
//   --spill <dir>        spill-drain mode (DESIGN.md §10): a drainer thread
//                        in this wrapper continuously consumes published
//                        entries to chunk files "<dir>/<prefix-base>.seg.NNNN"
//                        and writers reclaim the space — unbounded sessions
//                        with no ring-mode data loss. Pass the prefix's own
//                        directory so teeperf_analyze finds the chunks next
//                        to the .log. Excludes --ring and --shards 0
//   --spill-chunk-entries N   per-shard entries consumed per chunk
//                        (default: 32768)
//   --no-telemetry       skip the self-telemetry region / watchdog
//   --hold-ms N          keep the session (shm log, telemetry region,
//                        watchdog) alive N ms after the child exits — lets
//                        teeperf_stats scrape a finished-but-held session
//   --faults <spec>      arm deterministic fault points (see TESTING.md),
//                        e.g. "dump.torn:nth=1;counter.stall:nth=1" — armed
//                        in this wrapper and exported to the child via
//                        TEEPERF_FAULTS
//   --fault-seed N       seed for probabilistic / value-drawing faults
//                        (default: 1; exported as TEEPERF_FAULT_SEED)
//
// The session also publishes self-telemetry: a second shared-memory region
// "<base>.obs" next to the "<base>.log" segment (base =
// "/teeperf.<pid>.<nonce>", the multi-session naming scheme) holds live
// metrics (ring occupancy, entry rates, counter health) plus a structured
// event journal; a watchdog thread re-measures the counter against
// CLOCK_MONOTONIC continuously. The session is announced in the on-disk
// session registry ($TEEPERF_SESSION_DIR), which is how teeperf_stats and
// teeperf_monitord discover it. At exit the session persists
// "<prefix>.health" (human snapshot) and "<prefix>.events.jsonl", which
// teeperf_analyze folds into its report as the "recorder health" section.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "common/fileutil.h"
#include "common/session_registry.h"
#include "core/recorder.h"
#include "drain/drainer.h"
#include "faultsim/fault.h"

using namespace teeperf;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: teeperf_record [-o prefix] [-n entries] [-c tsc|software|"
               "steady_clock] [--counter-replicas n] [--inactive] "
               "[--calls-only|--returns-only] "
               "[--faults spec] [--fault-seed n] -- <command> [args...]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string prefix = "teeperf";
  u64 max_entries = 1u << 20;
  std::string counter = "tsc";
  bool active = true;
  bool calls = true, returns = true;
  std::string filter_spec;
  long start_after_ms = -1, stop_after_ms = -1;
  long shards = -1;  // -1 = auto, 0 = v1 single tail, >0 = explicit v2
  bool ring = false;
  std::string spill_dir;
  u64 spill_chunk_entries = 1u << 15;
  bool telemetry = true;
  long hold_ms = 0;
  long counter_replicas = 0;
  std::string fault_spec;
  u64 fault_seed = 1;

  int i = 1;
  for (; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--") {
      ++i;
      break;
    } else if (arg == "-o" && i + 1 < argc) {
      prefix = argv[++i];
    } else if (arg == "-n" && i + 1 < argc) {
      max_entries = static_cast<u64>(std::atoll(argv[++i]));
    } else if (arg == "-c" && i + 1 < argc) {
      counter = argv[++i];
    } else if (arg == "--inactive") {
      active = false;
    } else if (arg == "--calls-only") {
      returns = false;
    } else if (arg == "--returns-only") {
      calls = false;
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = std::atol(argv[++i]);
      if (shards < 0 || shards > static_cast<long>(kMaxLogShards)) {
        usage();
        return 2;
      }
    } else if (arg == "--ring") {
      ring = true;
    } else if (arg == "--spill" && i + 1 < argc) {
      spill_dir = argv[++i];
    } else if (arg == "--spill-chunk-entries" && i + 1 < argc) {
      spill_chunk_entries = static_cast<u64>(std::atoll(argv[++i]));
      if (spill_chunk_entries == 0) {
        usage();
        return 2;
      }
    } else if (arg == "--counter-replicas" && i + 1 < argc) {
      counter_replicas = std::atol(argv[++i]);
      if (counter_replicas < 0 ||
          counter_replicas > static_cast<long>(kMaxCounterReplicas)) {
        usage();
        return 2;
      }
    } else if (arg == "--no-telemetry") {
      telemetry = false;
    } else if (arg == "--hold-ms" && i + 1 < argc) {
      hold_ms = std::atol(argv[++i]);
    } else if (arg == "--faults" && i + 1 < argc) {
      fault_spec = argv[++i];
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      fault_seed = static_cast<u64>(std::atoll(argv[++i]));
    } else if (arg == "--filter" && i + 1 < argc) {
      filter_spec = argv[++i];
    } else if (arg == "--start-after-ms" && i + 1 < argc) {
      start_after_ms = std::atol(argv[++i]);
      active = false;
    } else if (arg == "--stop-after-ms" && i + 1 < argc) {
      stop_after_ms = std::atol(argv[++i]);
    } else {
      usage();
      return 2;
    }
  }
  if (i >= argc || max_entries == 0) {
    usage();
    return 2;
  }
  if (!spill_dir.empty() && ring) {
    std::fprintf(stderr, "teeperf_record: --spill excludes --ring (the two "
                         "reclaim policies cannot coexist)\n");
    return 2;
  }
  if (!spill_dir.empty() && shards == 0) {
    std::fprintf(stderr, "teeperf_record: --spill requires a sharded (v2) "
                         "log; drop --shards 0\n");
    return 2;
  }

  // Fault injection (TESTING.md): a bad spec is a usage error — arming the
  // wrong point silently would make a fault run look healthy.
  if (!fault_spec.empty()) {
    fault::Registry::instance().set_seed(fault_seed);
    std::string fault_error;
    if (!fault::Registry::instance().arm_from_spec(fault_spec, &fault_error)) {
      std::fprintf(stderr, "teeperf_record: bad --faults spec: %s\n",
                   fault_error.c_str());
      usage();
      return 2;
    }
  }

  CounterMode mode = CounterMode::kTsc;
  if (counter == "software") mode = CounterMode::kSoftware;
  else if (counter == "steady_clock") mode = CounterMode::kSteadyClock;
  else if (counter != "tsc") {
    usage();
    return 2;
  }

  // Replication only applies to the software counter (hardware sources have
  // nothing to replicate); silently dropping the request would hide a typo'd
  // command line, so reject it.
  if (counter_replicas > 0 && mode != CounterMode::kSoftware) {
    std::fprintf(stderr, "teeperf_record: --counter-replicas requires "
                         "-c software\n");
    return 2;
  }

  // Stale-session GC on the way in: reclaim descriptors and shm segments
  // orphaned by crashed sessions, so a host that loops crashing recorders
  // never leaks /dev/shm (the same sweep teeperf_monitord runs
  // continuously).
  {
    auto gc = session_registry::gc_stale_sessions(session_registry::registry_dir());
    if (gc.descriptors || gc.segments) {
      std::fprintf(stderr,
                   "teeperf_record: reclaimed %u stale session descriptor(s), "
                   "%u orphaned shm segment(s)\n",
                   gc.descriptors, gc.segments);
    }
  }

  // The session itself — shm log "/teeperf.<pid>.<nonce>.log", telemetry
  // region, registry descriptor, counter, watchdog, calibration and dump —
  // is one Recorder, the same owner in-process sessions use. Its probes run
  // in the child, which adopts the log by name, so only the host half is
  // attached here.
  RecorderOptions ropts;
  ropts.max_entries = max_entries;
  ropts.shards = static_cast<i32>(shards);
  ropts.counter_mode = mode;
  ropts.counter_replicas = static_cast<u32>(counter_replicas);
  ropts.start_active = active;
  ropts.ring_buffer = ring;
  ropts.spill_drain = !spill_dir.empty();
  ropts.record_calls = calls;
  ropts.record_returns = returns;
  ropts.shm_name = "auto";
  ropts.telemetry = telemetry;
  ropts.dump_prefix = prefix;
  std::unique_ptr<Recorder> rec = Recorder::create(ropts);
  if (!rec) {
    std::fprintf(stderr, "teeperf_record: cannot create the session log "
                         "(%llu entries in shared memory)\n",
                 static_cast<unsigned long long>(max_entries));
    return 1;
  }
  if (telemetry && !rec->telemetry()) {
    std::fprintf(stderr, "teeperf_record: telemetry shm failed, continuing "
                         "without\n");
  }
  if (rec->session_name().empty()) {
    std::fprintf(stderr,
                 "teeperf_record: cannot publish session descriptor under %s "
                 "(monitoring tools will not discover this session)\n",
                 session_registry::registry_dir().c_str());
  }
  ProfileLog& log = rec->log();

  // Spill-drain mode: the drainer thread runs in this wrapper for the whole
  // session, consuming published windows into "<dir>/<prefix-base>.seg.NNNN"
  // chunk files while writers reclaim the space (DESIGN.md §10). Started
  // before the fork so the child's very first batches already have a
  // consumer.
  std::unique_ptr<drain::Drainer> drainer;
  if (!spill_dir.empty()) {
    std::string base = prefix;
    if (auto slash = base.find_last_of('/'); slash != std::string::npos) {
      base = base.substr(slash + 1);
    }
    drain::DrainerOptions dopts;
    dopts.prefix = spill_dir + "/" + base;
    dopts.chunk_entries = spill_chunk_entries;
    drainer = std::make_unique<drain::Drainer>(&log, dopts);
    drain::Drainer* d = drainer.get();
    rec->set_drain_sampler([d] {
      drain::Drainer::Stats st = d->stats();
      return Recorder::DrainSample{st.lag_entries, st.spilled_bytes,
                                   st.drained_entries};
    });
    drainer->start();
  }
  rec->attach_host();

  pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    return 1;
  }
  if (child == 0) {
    setenv("TEEPERF_SHM", rec->shm_name().c_str(), 1);
    setenv("TEEPERF_COUNTER", counter.c_str(), 1);
    setenv("TEEPERF_SYM", (prefix + ".sym").c_str(), 1);
    if (rec->telemetry()) {
      setenv("TEEPERF_OBS", rec->telemetry()->shm_name().c_str(), 1);
    }
    if (!fault_spec.empty()) {
      setenv("TEEPERF_FAULTS", fault_spec.c_str(), 1);
      setenv("TEEPERF_FAULT_SEED", std::to_string(fault_seed).c_str(), 1);
    }
    if (!filter_spec.empty()) setenv("TEEPERF_FILTER", filter_spec.c_str(), 1);
    execvp(argv[i], argv + i);
    std::perror("execvp");
    _exit(127);
  }

  // Dynamic activation (§II-B): the flags word is atomic in shared memory,
  // so the wrapper can toggle measurement while the application runs.
  // Recorder::start()/stop() flip it and journal the toggle.
  std::atomic<bool> child_done{false};
  std::thread toggler([&] {
    auto wait_ms = [&](long ms) {
      for (long waited = 0; waited < ms && !child_done.load(std::memory_order_acquire); waited += 10) {
        usleep(10'000);
      }
    };
    if (start_after_ms >= 0) {
      wait_ms(start_after_ms);
      if (!child_done.load(std::memory_order_acquire)) rec->start();
    }
    if (stop_after_ms >= 0) {
      wait_ms(stop_after_ms - (start_after_ms > 0 ? start_after_ms : 0));
      if (!child_done.load(std::memory_order_acquire)) rec->stop();
    }
  });

  int status = 0;
  if (drainer) {
    // Supervise child and drainer together. A dead drainer (fault injection,
    // chunk I/O failure) is restarted in place — resume is safe because
    // chunks are persisted before the drained cursor advances, and the next
    // sequence number is recovered from the files already on disk.
    while (waitpid(child, &status, WNOHANG) == 0) {
      if (drainer->dead()) {
        std::fprintf(stderr, "teeperf_record: drainer died; resuming\n");
        drainer->restart();
      }
      usleep(2'000);
    }
  } else {
    waitpid(child, &status, 0);
  }
  if (hold_ms > 0) {
    // Keep the session (and its live telemetry) scrapeable for a while —
    // demos and tests attach teeperf_stats during this window.
    usleep(static_cast<useconds_t>(hold_ms) * 1000);
  }
  child_done.store(true, std::memory_order_release);
  toggler.join();
  log.header()->pid = static_cast<u64>(child);

  // Detach calibrates ticks→ns while the counter still runs, then stops it
  // and the watchdog.
  rec->detach();
  if (drainer) {
    // Writers are gone: drain every remaining published window to chunks.
    // Unpublished residue (a writer killed between reserve and publish)
    // stays in the shm windows and lands in the compact .log below.
    if (drainer->dead()) drainer->restart();
    drainer->final_drain();
  }

  // The compact .log plus the .health / .events.jsonl sidecars that
  // teeperf_analyze folds into its report. The child wrote .sym itself.
  if (!rec->dump(prefix)) {
    std::fprintf(stderr, "teeperf_record: writing %s.log failed\n",
                 prefix.c_str());
    return 1;
  }
  u64 tail = log.attempted();
  u64 n = log.size();

  if (drainer) {
    drain::Drainer::Stats st = drainer->stats();
    std::fprintf(stderr,
                 "teeperf_record: spilled %llu entries to %u chunks "
                 "(%llu bytes) under %s\n",
                 static_cast<unsigned long long>(st.drained_entries),
                 static_cast<unsigned>(st.chunks),
                 static_cast<unsigned long long>(st.spilled_bytes),
                 spill_dir.c_str());
  }
  std::fprintf(stderr,
               "teeperf_record: %llu entries (%llu attempted), counter=%s, "
               "wrote %s.log%s%s\n",
               static_cast<unsigned long long>(n),
               static_cast<unsigned long long>(tail), counter.c_str(),
               prefix.c_str(),
               file_exists(prefix + ".sym") ? (" + " + prefix + ".sym").c_str()
                                            : " (no .sym — did the app link "
                                              "teeperf_core?)",
               rec->telemetry() ? " + .health + .events.jsonl" : "");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 1;
}
