#include "drain/chunk_format.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32c.h"
#include "common/fileutil.h"

namespace teeperf::drain {

namespace {

// The rewritten header and directory that open a chunk payload, built once
// for both serialize_chunk and ChunkWriter.
struct ChunkHead {
  LogHeader header;
  std::vector<LogShard> dir;
  u64 payload_bytes = 0;  // header + directory + every window's entries

  ChunkHead(const LogHeader& session, std::span<const LogWindow> windows)
      : dir(windows.size()) {
    u32 nshards = static_cast<u32>(windows.size());
    std::memcpy(static_cast<void*>(&header), &session, sizeof(LogHeader));
    header.version = kLogVersionSharded;
    header.shard_count = nshards;
    header.flags.store(session.flags.load(std::memory_order_relaxed) &
                           ~(log_flags::kActive | log_flags::kRingBuffer |
                             log_flags::kSpillDrain),
                       std::memory_order_relaxed);
    header.tail.store(0, std::memory_order_relaxed);
    // Drop accounting lives in the session's final residue dump, not in the
    // chunks — a loader summing both would double count.
    header.dropped.store(0, std::memory_order_relaxed);

    u64 total = 0;
    for (u32 s = 0; s < nshards; ++s) {
      u64 len = windows[s].size();
      dir[s].entry_offset = total;
      dir[s].capacity = len;
      dir[s].tail.store(len, std::memory_order_relaxed);
      dir[s].dropped.store(0, std::memory_order_relaxed);
      dir[s].published.store(0, std::memory_order_relaxed);
      dir[s].drained.store(windows[s].start, std::memory_order_relaxed);
      total += len;
    }
    header.max_entries = total;
    payload_bytes = sizeof(LogHeader) + nshards * sizeof(LogShard) +
                    total * sizeof(LogEntry);
  }

  // The payload in order: header, directory, then each window's spans.
  template <typename Fn>
  void for_each_part(std::span<const LogWindow> windows, Fn&& fn) const {
    fn(std::string_view(reinterpret_cast<const char*>(&header),
                        sizeof(LogHeader)));
    fn(std::string_view(reinterpret_cast<const char*>(dir.data()),
                        dir.size() * sizeof(LogShard)));
    for (const LogWindow& w : windows) {
      for (std::span<const LogEntry> span : {w.first, w.second}) {
        fn(std::string_view(reinterpret_cast<const char*>(span.data()),
                            span.size_bytes()));
      }
    }
  }
};

ChunkFrame make_frame(u32 seq, u64 payload_bytes, u32 payload_crc) {
  ChunkFrame frame;
  frame.magic = kChunkMagic;
  frame.seq = seq;
  frame.payload_bytes = payload_bytes;
  frame.payload_crc = crc32c_mask(payload_crc);
  frame.header_crc = crc32c_mask(
      crc32c(&frame, sizeof(ChunkFrame) - 2 * sizeof(u32)));
  return frame;
}

// pwrite of the whole range, resuming short writes.
bool pwrite_all(int fd, const char* p, usize n, u64 offset) {
  while (n > 0) {
    ssize_t w = ::pwrite(fd, p, n, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<usize>(w);
    offset += static_cast<u64>(w);
  }
  return true;
}

}  // namespace

std::string serialize_chunk(const LogHeader& session,
                            const std::vector<ShardWindow>& windows, u32 seq) {
  std::vector<LogWindow> views(windows.size());
  for (usize s = 0; s < windows.size(); ++s) {
    views[s].first = windows[s].entries;
    views[s].start = windows[s].start;
  }
  ChunkHead head(session, views);
  std::string out(sizeof(ChunkFrame), '\0');
  out.reserve(sizeof(ChunkFrame) + head.payload_bytes);
  u32 crc = 0;
  head.for_each_part(views, [&](std::string_view part) {
    crc = crc32c_extend(crc, part.data(), part.size());
    out.append(part);
  });
  ChunkFrame frame = make_frame(seq, head.payload_bytes, crc);
  std::memcpy(out.data(), &frame, sizeof(ChunkFrame));
  return out;
}

ChunkWriter::ChunkWriter() : buf_(new char[kBufferBytes]) {}

u64 ChunkWriter::write(const std::string& path, const LogHeader& session,
                       std::span<const LogWindow> windows, u32 seq,
                       bool tear) {
  ChunkHead head(session, windows);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return 0;
  // The payload starts past the frame's slot; the frame is written last.
  const u64 limit = tear ? head.payload_bytes / 2 : head.payload_bytes;
  u64 offset = sizeof(ChunkFrame);
  u64 streamed = 0;  // payload bytes copied into the buffer so far
  usize fill = 0;
  u32 crc = 0;
  bool ok = true;
  auto flush = [&] {
    crc = crc32c_extend(crc, buf_.get(), fill);
    ok = ok && pwrite_all(fd, buf_.get(), fill, offset);
    offset += fill;
    fill = 0;
  };
  head.for_each_part(windows, [&](std::string_view part) {
    while (ok && !part.empty() && streamed < limit) {
      usize n = std::min<u64>({part.size(), kBufferBytes - fill,
                               limit - streamed});
      std::memcpy(buf_.get() + fill, part.data(), n);
      fill += n;
      streamed += n;
      part.remove_prefix(n);
      if (fill == kBufferBytes) flush();
    }
  });
  if (ok && fill > 0) flush();
  if (ok && !tear) {
    ChunkFrame frame = make_frame(seq, head.payload_bytes, crc);
    ok = pwrite_all(fd, reinterpret_cast<const char*>(&frame),
                    sizeof(ChunkFrame), 0);
  }
  if (::close(fd) != 0) ok = false;
  return ok && !tear ? sizeof(ChunkFrame) + head.payload_bytes : 0;
}

bool parse_chunk(std::string_view bytes, u32* seq, std::string_view* payload,
                 std::string* error) {
  if (bytes.size() < sizeof(ChunkFrame)) {
    if (error) *error = "chunk shorter than its frame";
    return false;
  }
  ChunkFrame frame;
  std::memcpy(&frame, bytes.data(), sizeof(ChunkFrame));
  if (frame.magic != kChunkMagic) {
    if (error) *error = "bad chunk magic";
    return false;
  }
  u32 want = crc32c_mask(crc32c(bytes.data(), sizeof(ChunkFrame) - 2 * sizeof(u32)));
  if (frame.header_crc != want) {
    if (error) *error = "chunk frame checksum mismatch";
    return false;
  }
  if (frame.payload_bytes != bytes.size() - sizeof(ChunkFrame)) {
    if (error) *error = "chunk payload truncated";
    return false;
  }
  std::string_view body = bytes.substr(sizeof(ChunkFrame));
  if (frame.payload_crc != crc32c_mask(crc32c(body.data(), body.size()))) {
    if (error) *error = "chunk payload checksum mismatch";
    return false;
  }
  if (seq) *seq = frame.seq;
  if (payload) *payload = body;
  return true;
}

std::string chunk_path(const std::string& prefix, u32 seq) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".seg.%04u", seq);
  return prefix + suffix;
}

ChunkScan for_each_chunk(
    const std::string& prefix,
    const std::function<bool(u32 seq, std::string_view payload)>& fn) {
  for (u32 seq = 0;; ++seq) {
    auto raw = read_file(chunk_path(prefix, seq));
    if (!raw) return ChunkScan::kDone;
    std::string_view payload;
    if (!parse_chunk(*raw, nullptr, &payload, nullptr)) {
      // Tolerate only a torn *trailing* chunk; a bad chunk followed by good
      // ones cannot come from the persist-before-advance protocol.
      if (file_exists(chunk_path(prefix, seq + 1))) return ChunkScan::kCorrupt;
      return ChunkScan::kDone;
    }
    if (!fn(seq, payload)) return ChunkScan::kStopped;
  }
}

}  // namespace teeperf::drain
