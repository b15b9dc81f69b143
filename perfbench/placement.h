// Deterministic thread placement for the benchmark process.
//
// Some schedulers start a new thread on its creator's CPU and leave busy
// threads where they are. Measured on a 4-vCPU VM, the app's worker, the
// software counter and the drainer then ran stacked on the main thread's CPU
// in some runs and not in others, and a run's app time moved by up to 3x with
// no code change. placement.cc interposes pthread_create so every thread the
// process creates starts pinned to a CPU chosen by the rule below; the
// benchmark then measures the profiler, not where threads happened to land.
//
// The rule, with n allowed CPUs (placement is off when n < 3):
//   - the main thread runs on the last CPU;
//   - a thread created while the app runs (a Phoenix worker) goes to the
//     second-to-last CPU, so the two app threads never share one;
//   - any other thread goes to the CPU with the fewest live placed threads,
//     where, while a session is live, the two app CPUs count one extra, so
//     the profiler's threads (counter, drainer, watchdog) keep off the app's
//     CPUs while there is room elsewhere.
#pragma once

namespace perfbench::placement {

// Pins the calling thread (the benchmark's main thread) to the last allowed
// CPU and enables placement. Call before any other thread exists.
void init();

// Threads created while set are app threads.
void set_app(bool on);

// While set, profiler threads avoid the app's CPUs.
void set_session(bool on);

}  // namespace perfbench::placement
