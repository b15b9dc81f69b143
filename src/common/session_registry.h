// On-disk session registry: the discovery layer between profiling sessions
// and host-side observers (tools/teeperf_monitord, tools/teeperf_stats).
//
// Every named session (teeperf_record, or an embedding Recorder) publishes
// one JSON descriptor file "<dir>/<name>.json" naming its shm segments and
// owner pid, and removes it on clean exit. Observers enumerate the
// directory instead of guessing shm names, so N concurrent sessions on one
// host never collide and never cross-attach (the bug the old
// "/teeperf.<pid>" convention had when a pid was ambiguous or recycled).
//
// The directory is $TEEPERF_SESSION_DIR when set, else a fixed per-host
// default. Descriptors are written atomically (tmp + rename), so readers
// only ever see whole files. A session killed before cleanup leaves a
// stale descriptor plus orphaned "/teeperf.<pid>.<nonce>.{log,obs}" shm
// segments; gc() reclaims both once the owner pid is dead.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace teeperf::session_registry {

// One profiling session, as published by its owner. Serialized as a single
// one-line JSON object per descriptor file.
struct SessionDescriptor {
  std::string name;     // registry key, filename-safe ("teeperf.<pid>.<nonce>")
  u64 pid = 0;          // owner process (wrapper / embedding recorder)
  std::string log_shm;  // named log segment; "" when the log is anonymous
  std::string obs_shm;  // named obs telemetry segment; "" when telemetry off
  std::string prefix;   // dump prefix (".sym" lives next to it); may be ""
  u64 capacity = 0;     // log capacity in entries
  u32 shards = 0;       // log shard count (0 = v1 single tail)
  u64 start_ns = 0;     // CLOCK_MONOTONIC at publish time
  u64 pid_start = 0;    // owner's start time, process_start_time(pid);
                        // 0 = not recorded
};

// $TEEPERF_SESSION_DIR, or the shared per-host default
// "/tmp/teeperf-sessions".
std::string registry_dir();

// A nonce for a session registered in `dir`. The low 32 bits are unique
// enough to never collide on one host (time-derived, process-locally
// sequenced); combined with the pid in shm_base() they give each session
// its own shm namespace even across pid reuse. The high 32 bits are a hash
// of `dir` (trailing '/' ignored), so a segment's name says which registry
// dir it was created for, with no file written to record it.
u64 make_nonce(const std::string& dir);

// "/teeperf.<pid>.<nonce-hex>" — the session's shm base name (the nonce as
// 16 hex digits); the log segment is "<base>.log" and the telemetry segment
// "<base>.obs".
std::string shm_base(u64 pid, u64 nonce);

// One-line JSON serialization and its tolerant inverse (unknown keys are
// skipped; missing keys keep their defaults). from_json() fails only when
// the required "name" or "pid" fields are absent.
std::string to_json(const SessionDescriptor& d);
bool from_json(std::string_view json, SessionDescriptor* out);

// Atomically writes "<dir>/<name>.json" (tmp + rename), creating `dir` if
// needed. False on I/O failure or an empty/unsafe name.
bool publish_session(const std::string& dir, const SessionDescriptor& d);
bool unpublish_session(const std::string& dir, const std::string& name);

// Every parseable descriptor in `dir`, sorted by name. A missing directory
// is an empty fleet, not an error.
std::vector<SessionDescriptor> list_sessions(const std::string& dir);

bool pid_alive(u64 pid);

// The start time of process `pid` (field 22 of /proc/<pid>/stat, in clock
// ticks since boot), or 0 when it cannot be read. With the pid it names one
// process: a recycled pid has a later start time.
u64 process_start_time(u64 pid);

// Whether the descriptor's owner still runs: its pid is alive and, when the
// descriptor records one, has the same start time. Descriptors without
// pid_start fall back to pid_alive alone.
bool owner_alive(const SessionDescriptor& d);

// Stale-session GC: removes descriptors whose owner pid is dead (unlinking
// the shm segments they name), drops unparseable descriptor files, and
// sweeps /dev/shm for orphaned "teeperf.<pid>.<nonce>.{log,obs}" segments
// whose embedded pid is dead — a crashed session leaves no descriptor only
// when it died between shm creation and publish. The sweep takes only
// segments whose nonce carries `dir`'s hash: one dir's GC never reclaims
// another dir's (another tenant's) crash evidence. Segments named by a
// live process are never touched.
struct GcResult {
  u32 descriptors = 0;  // stale descriptor files removed
  u32 segments = 0;     // orphaned shm segments unlinked
};
GcResult gc_stale_sessions(const std::string& dir);

}  // namespace teeperf::session_registry
