// On-disk chunk format for the streaming spill drainer (DESIGN.md §10).
//
// Each drain round persists the windows it consumed as one chunk file,
// `<prefix>.seg.NNNN`. A chunk is a CRC32C-framed compact v2 sub-log:
//
//   ChunkFrame (32 bytes, checksummed)
//   LogHeader copy           |
//   rewritten LogShard dir   | the payload — loadable with the same code
//   packed shard windows     | path as any compact dump
//
// The directory's `drained` field is repurposed on disk to carry each
// window's absolute start cursor (the shard's `drained` value when the
// window was copied). That is what lets the multi-chunk loader stitch
// chunks and the final residue into one per-shard stream — and skip the
// overlap a drainer crash between persist and cursor-advance leaves behind.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "core/log_format.h"

namespace teeperf::drain {

inline constexpr u64 kChunkMagic = 0x5450534547303031ull;  // "TPSEG001"

// Fixed-size frame ahead of the payload. `header_crc` covers the first 24
// bytes of the frame, `payload_crc` the payload; both are stored masked
// (crc32c_mask) following the LevelDB convention used by the kvstore.
struct ChunkFrame {
  u64 magic = 0;
  u32 seq = 0;
  u32 reserved = 0;  // zeroed: keeps serialized frames byte-deterministic
  u64 payload_bytes = 0;
  u32 payload_crc = 0;
  u32 header_crc = 0;
};
static_assert(sizeof(ChunkFrame) == 32);

// One shard's consumed window: `start` is the absolute cursor of
// entries.front() within that shard's stream.
struct ShardWindow {
  u64 start = 0;
  std::vector<LogEntry> entries;
};

// Serializes one drain round as a framed chunk, in memory. `session`
// supplies the immutable header fields (pid, counter_mode, ...); ring/spill/
// active flags are cleared so the payload reads as a plain bounded compact
// dump.
std::string serialize_chunk(const LogHeader& session,
                            const std::vector<ShardWindow>& windows, u32 seq);

// Writes chunk files by streaming each window's spans through one fixed
// buffer: copy a piece, extend the CRC over the copy, write the copy. The
// CRC therefore covers exactly the bytes written, even when a writer
// overwrites the source window mid-chunk (spill force-advance). The frame
// goes to offset 0 last, so a death mid-write leaves a zero frame that
// fails to parse. Bytes equal serialize_chunk for the same windows.
class ChunkWriter {
 public:
  static constexpr usize kBufferBytes = usize{256} << 10;

  ChunkWriter();

  // Writes `windows` (one per shard, at most two spans each, as read out of
  // the log) as chunk `seq` at `path`, replacing any file there. Returns
  // the chunk's size in bytes, or 0 on an I/O error or a tear. `tear` is
  // the drain.chunk.torn fault: stop after half the payload, frame never
  // written.
  u64 write(const std::string& path, const LogHeader& session,
            std::span<const LogWindow> windows, u32 seq, bool tear = false);

 private:
  std::unique_ptr<char[]> buf_;
};

// Verifies the frame and both CRCs. On success fills *seq and *payload (a
// view into `bytes`) and returns true; on failure fills *error.
bool parse_chunk(std::string_view bytes, u32* seq, std::string_view* payload,
                 std::string* error);

// "<prefix>.seg.NNNN" (zero-padded to four digits; more digits if needed).
std::string chunk_path(const std::string& prefix, u32 seq);

// Outcome of a sequential chunk scan.
enum class ChunkScan {
  kDone,     // every chunk consumed (a torn trailing chunk is tolerated:
             // the drainer died mid-write, so its window was never marked
             // drained and the same entries reappear in the residue dump)
  kCorrupt,  // a chunk failed verification but a later chunk exists on
             // disk — that sequence cannot come from the protocol
  kStopped,  // the callback returned false
};

// Visits "<prefix>.seg.NNNN" files in sequence order, reading ONE file into
// memory at a time — the bounded-memory primitive under both the in-memory
// spill loader and the streaming analyzer. `fn` receives each verified
// chunk's payload (a compact v2 sub-log; the view dies with the call) and
// returns false to stop the scan early.
ChunkScan for_each_chunk(
    const std::string& prefix,
    const std::function<bool(u32 seq, std::string_view payload)>& fn);

}  // namespace teeperf::drain
