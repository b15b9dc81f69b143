// Shared dump-parsing layer for the in-memory loader (profile.cc) and the
// streaming analyzer (stream.cc). Parsing copies no entries: windows view
// the caller's bytes (normally a mapped file, see map_file).
//
// A serialized compact dump — a recorder dump, a spill chunk payload, or a
// spill residue — parses into one window of entries per shard plus the
// absolute start cursor of each window. Both consumers need exactly that
// view, and both need the same stitch-and-deduplicate policy when a session
// spans many chunk files; keeping the parser and the stitcher here means a
// hostile-input hardening fix lands in both pipelines at once.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "core/log_format.h"

namespace teeperf::analyzer {

// A serialized dump viewed as typed windows. The header and directory are
// copied out — reading LogHeader's atomics in place would be undefined, and
// every header field is attacker-controlled once dumps come from a hostile
// host — but the entries are not: each window is a span into the caller's
// bytes, which must outlive this dump. Only when those bytes are not 8-byte
// aligned does the parser make one owned, aligned copy of the entry region
// for the windows to view instead. Move-only, so the windows never dangle.
struct ParsedDump {
  ParsedDump() = default;
  ParsedDump(ParsedDump&&) = default;
  ParsedDump& operator=(ParsedDump&&) = default;
  ParsedDump(const ParsedDump&) = delete;
  ParsedDump& operator=(const ParsedDump&) = delete;

  // One window of entries per shard: v1 dumps parse into a single window,
  // v2 into one per directory entry (possibly empty). A thread's entries
  // live entirely inside one window.
  std::vector<std::span<const LogEntry>> shards;
  // Per-window absolute start cursor, parallel to `shards`: the serialized
  // directory's `drained` field. 0 for v1 dumps and for v2 logs that never
  // drained or wrapped; spill chunks and spill residue dumps record where
  // in the shard's stream each window begins, which is what lets the
  // multi-chunk loader stitch and deduplicate.
  std::vector<u64> starts;
  double ns_per_tick = 0.0;
  // The aligned copy behind `shards` for a misaligned input; else empty.
  // (A moved vector keeps its buffer, so moving the dump keeps the views.)
  std::vector<LogEntry> owned;

  bool single() const { return shards.size() <= 1; }
};

// Parses one serialized dump. Never trusts the bytes: the header is copied
// out (no alignment or atomic assumptions on the buffer), every window is
// independently clamped to what the buffer actually holds, and the sum of
// all windows is budgeted so a hostile directory cannot multiply a small
// file into gigabytes of windows. nullopt on a bad magic/version or
// sub-header buffer.
std::optional<ParsedDump> parse_dump(std::string_view bytes);

// Stitches a sequence of parsed dumps (spill chunks in order, residue last)
// into per-shard streams without materializing them. Windows arrive in
// cursor order; a window starting below a shard's cursor overlaps what a
// crashed drainer already persisted and the duplicate prefix is skipped, a
// window starting above it sits after force-dropped entries (already
// accounted in the drop counters) and simply appends. Consumers receive the
// deduplicated spans through the callback — the in-memory loader appends
// them to vectors, the streaming analyzer feeds them straight into
// per-shard reconstruction state.
class SpillStitcher {
 public:
  using WindowFn =
      std::function<void(u32 shard, const LogEntry* entries, u64 n)>;

  // Absorbs one dump's windows, invoking `fn` for every non-duplicate span.
  // The shard count is fixed by the first dump absorbed; false on mismatch.
  bool absorb(const ParsedDump& dump, const WindowFn& fn);

  bool any() const { return !cursors_.empty(); }
  usize shard_count() const { return cursors_.size(); }
  // The last nonzero tick rate seen (the residue dump's, normally).
  double ns_per_tick() const { return ns_per_tick_; }

 private:
  std::vector<u64> cursors_;
  double ns_per_tick_ = 0.0;
};

}  // namespace teeperf::analyzer
