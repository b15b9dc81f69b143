#include "analyzer/mprof.h"

#include <cmath>
#include <cstring>

#include "common/crc32c.h"
#include "common/fileutil.h"

namespace teeperf::analyzer {

namespace {

// --- serialization primitives (little-endian memcpy, like every other
// --- on-disk structure in this repo) -------------------------------------

void put_u64(std::string& out, u64 v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_u32(std::string& out, u32 v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<u32>(s.size()));
  out.append(s);
}

// Bounds-checked cursor over the payload. Every read either succeeds or
// flips `ok` — the loader checks once per record and rejects the file.
struct Reader {
  const char* p;
  const char* end;
  bool ok = true;

  bool take(void* dst, usize n) {
    if (static_cast<usize>(end - p) < n) {
      ok = false;
      return false;
    }
    std::memcpy(dst, p, n);
    p += n;
    return true;
  }
  u64 u64v() {
    u64 v = 0;
    take(&v, sizeof(v));
    return v;
  }
  u32 u32v() {
    u32 v = 0;
    take(&v, sizeof(v));
    return v;
  }
  double f64v() {
    double v = 0;
    take(&v, sizeof(v));
    return v;
  }
  std::string str() {
    u32 n = u32v();
    if (!ok || static_cast<usize>(end - p) < n) {
      ok = false;
      return {};
    }
    std::string s(p, n);
    p += n;
    return s;
  }
  bool done() const { return ok && p == end; }
};

bool fail(std::string* error, const char* why) {
  if (error) *error = why;
  return false;
}

// a += b with u64 overflow detection.
bool add_ck(u64& a, u64 b) { return !__builtin_add_overflow(a, b, &a); }

}  // namespace

MergeableProfile MergeableProfile::from_profile(const Profile& p) {
  MergeableProfile m;
  m.sessions = 1;
  m.ns_per_tick = p.ns_per_tick();
  m.stats = MprofStats::from(p.recon_stats(), p.thread_count());

  // Two ids can symbolize to the same name (e.g. the same function
  // registered by two libraries); the name key absorbs both.
  for (const MethodStats& s : p.method_stats()) {
    MprofMethod& mm = m.methods[p.name(s.method)];
    mm.id = std::min(mm.id, s.method);
    mm.count += s.count;
    mm.inclusive_total += s.inclusive_total;
    mm.exclusive_total += s.exclusive_total;
    mm.min_inclusive = std::min(mm.min_inclusive, s.min_inclusive);
    mm.max_inclusive = std::max(mm.max_inclusive, s.max_inclusive);
  }
  for (const CallEdge& e : p.call_edges()) {
    MprofEdgeKey k{e.from_root ? std::string() : p.name(e.caller),
                   p.name(e.callee), e.from_root};
    MprofEdge& me = m.edges[std::move(k)];
    me.count += e.count;
    me.inclusive_total += e.inclusive_total;
  }
  for (const auto& [path, ticks] : p.folded_stacks()) m.stacks[path] += ticks;
  return m;
}

std::string MergeableProfile::save() const {
  std::string payload;
  put_u64(payload, methods.size());
  put_u64(payload, edges.size());
  put_u64(payload, stacks.size());
  put_u64(payload, sessions);
  put_f64(payload, ns_per_tick);
  put_u64(payload, stats.entries);
  put_u64(payload, stats.stray_returns);
  put_u64(payload, stats.mismatched_returns);
  put_u64(payload, stats.unwound_frames);
  put_u64(payload, stats.incomplete);
  put_u64(payload, stats.tombstones);
  put_u64(payload, stats.thread_count);

  for (const auto& [name, mm] : methods) {
    put_str(payload, name);
    put_u64(payload, mm.id);
    put_u64(payload, mm.count);
    put_u64(payload, mm.inclusive_total);
    put_u64(payload, mm.exclusive_total);
    put_u64(payload, mm.min_inclusive);
    put_u64(payload, mm.max_inclusive);
  }
  for (const auto& [key, me] : edges) {
    put_str(payload, key.caller);
    put_str(payload, key.callee);
    payload.push_back(key.from_root ? 1 : 0);
    put_u64(payload, me.count);
    put_u64(payload, me.inclusive_total);
  }
  for (const auto& [path, ticks] : stacks) {
    put_str(payload, path);
    put_u64(payload, ticks);
  }

  MprofFrame frame;
  frame.magic = kMprofMagic;
  frame.version = kMprofVersion;
  frame.payload_bytes = payload.size();
  frame.payload_crc = crc32c_mask(crc32c(payload.data(), payload.size()));
  frame.header_crc =
      crc32c_mask(crc32c(&frame, sizeof(MprofFrame) - 2 * sizeof(u32)));

  std::string out;
  out.reserve(sizeof(MprofFrame) + payload.size());
  out.assign(reinterpret_cast<const char*>(&frame), sizeof(MprofFrame));
  out.append(payload);
  return out;
}

bool MergeableProfile::save_to(const std::string& path) const {
  return write_file(path, save());
}

std::optional<MergeableProfile> MergeableProfile::load_bytes(
    std::string_view bytes, std::string* error) {
  auto reject = [&](const char* why) -> std::optional<MergeableProfile> {
    fail(error, why);
    return std::nullopt;
  };
  if (bytes.size() < sizeof(MprofFrame)) return reject("shorter than frame");
  MprofFrame frame;
  std::memcpy(&frame, bytes.data(), sizeof(MprofFrame));
  if (frame.magic != kMprofMagic) return reject("bad magic");
  u32 want =
      crc32c_mask(crc32c(bytes.data(), sizeof(MprofFrame) - 2 * sizeof(u32)));
  if (frame.header_crc != want) return reject("frame checksum mismatch");
  if (frame.version != kMprofVersion) return reject("unsupported version");
  if (frame.payload_bytes != bytes.size() - sizeof(MprofFrame)) {
    return reject("payload truncated");
  }
  std::string_view body = bytes.substr(sizeof(MprofFrame));
  if (frame.payload_crc != crc32c_mask(crc32c(body.data(), body.size()))) {
    return reject("payload checksum mismatch");
  }

  Reader r{body.data(), body.data() + body.size()};
  u64 method_count = r.u64v();
  u64 edge_count = r.u64v();
  u64 stack_count = r.u64v();
  MergeableProfile m;
  m.sessions = r.u64v();
  m.ns_per_tick = r.f64v();
  m.stats.entries = r.u64v();
  m.stats.stray_returns = r.u64v();
  m.stats.mismatched_returns = r.u64v();
  m.stats.unwound_frames = r.u64v();
  m.stats.incomplete = r.u64v();
  m.stats.tombstones = r.u64v();
  m.stats.thread_count = r.u64v();
  if (!r.ok) return reject("truncated header");
  if (!std::isfinite(m.ns_per_tick) || m.ns_per_tick < 0.0) {
    return reject("invalid tick rate");
  }
  // Each record consumes tens of bytes; a count the payload cannot possibly
  // hold is rejected up front instead of looping to the inevitable failure.
  u64 budget = body.size();
  if (method_count > budget || edge_count > budget || stack_count > budget) {
    return reject("record count exceeds payload");
  }

  std::string prev;
  for (u64 i = 0; i < method_count; ++i) {
    std::string name = r.str();
    MprofMethod mm;
    mm.id = r.u64v();
    mm.count = r.u64v();
    mm.inclusive_total = r.u64v();
    mm.exclusive_total = r.u64v();
    mm.min_inclusive = r.u64v();
    mm.max_inclusive = r.u64v();
    if (!r.ok) return reject("truncated method record");
    if (name.empty()) return reject("empty method name");
    if (i > 0 && name <= prev) return reject("methods not strictly sorted");
    if (mm.count == 0) return reject("method with zero count");
    if (mm.exclusive_total > mm.inclusive_total) {
      return reject("exclusive exceeds inclusive");
    }
    if (mm.min_inclusive > mm.max_inclusive) return reject("min exceeds max");
    if (mm.max_inclusive > mm.inclusive_total) {
      return reject("max exceeds inclusive total");
    }
    prev = std::move(name);
    m.methods.emplace(prev, mm);
  }

  MprofEdgeKey prev_key;
  for (u64 i = 0; i < edge_count; ++i) {
    MprofEdgeKey k;
    k.caller = r.str();
    k.callee = r.str();
    u8 root = 0;
    r.take(&root, 1);
    MprofEdge me;
    me.count = r.u64v();
    me.inclusive_total = r.u64v();
    if (!r.ok) return reject("truncated edge record");
    if (root > 1) return reject("non-boolean from_root");
    k.from_root = root != 0;
    if (k.from_root != k.caller.empty()) {
      return reject("root flag disagrees with caller");
    }
    if (k.callee.empty()) return reject("empty callee name");
    if (i > 0 && !(prev_key < k)) return reject("edges not strictly sorted");
    if (me.count == 0) return reject("edge with zero count");
    prev_key = k;
    m.edges.emplace(std::move(k), me);
  }

  prev.clear();
  for (u64 i = 0; i < stack_count; ++i) {
    std::string path = r.str();
    u64 ticks = r.u64v();
    if (!r.ok) return reject("truncated stack record");
    if (path.empty()) return reject("empty stack path");
    if (i > 0 && path <= prev) return reject("stacks not strictly sorted");
    if (ticks == 0) return reject("stack with zero ticks");
    prev = std::move(path);
    m.stacks.emplace(prev, ticks);
  }

  if (!r.done()) return reject("trailing bytes after records");
  return m;
}

std::optional<MergeableProfile> MergeableProfile::load(const std::string& path,
                                                       std::string* error) {
  auto raw = read_file(path);
  if (!raw) {
    fail(error, "cannot read file");
    return std::nullopt;
  }
  return load_bytes(*raw, error);
}

bool MergeableProfile::merge(const MergeableProfile& other) {
  // Merge into a copy so a mid-merge overflow leaves *this untouched —
  // half-applied merges would silently corrupt fleet rollups.
  MergeableProfile out = *this;
  if (!add_ck(out.sessions, other.sessions)) return false;
  if (other.ns_per_tick > 0.0) {
    out.ns_per_tick = ns_per_tick > 0.0
                          ? std::max(ns_per_tick, other.ns_per_tick)
                          : other.ns_per_tick;
  }
  if (!add_ck(out.stats.entries, other.stats.entries) ||
      !add_ck(out.stats.stray_returns, other.stats.stray_returns) ||
      !add_ck(out.stats.mismatched_returns, other.stats.mismatched_returns) ||
      !add_ck(out.stats.unwound_frames, other.stats.unwound_frames) ||
      !add_ck(out.stats.incomplete, other.stats.incomplete) ||
      !add_ck(out.stats.tombstones, other.stats.tombstones) ||
      !add_ck(out.stats.thread_count, other.stats.thread_count)) {
    return false;
  }
  for (const auto& [name, om] : other.methods) {
    MprofMethod& mm = out.methods[name];
    mm.id = std::min(mm.id, om.id);
    if (!add_ck(mm.count, om.count) ||
        !add_ck(mm.inclusive_total, om.inclusive_total) ||
        !add_ck(mm.exclusive_total, om.exclusive_total)) {
      return false;
    }
    mm.min_inclusive = std::min(mm.min_inclusive, om.min_inclusive);
    mm.max_inclusive = std::max(mm.max_inclusive, om.max_inclusive);
  }
  for (const auto& [key, oe] : other.edges) {
    MprofEdge& me = out.edges[key];
    if (!add_ck(me.count, oe.count) ||
        !add_ck(me.inclusive_total, oe.inclusive_total)) {
      return false;
    }
  }
  for (const auto& [path, ticks] : other.stacks) {
    if (!add_ck(out.stacks[path], ticks)) return false;
  }
  *this = std::move(out);
  return true;
}

u64 MergeableProfile::total_exclusive() const {
  u64 t = 0;
  for (const auto& [name, mm] : methods) {
    (void)name;
    t += mm.exclusive_total;
  }
  return t;
}

std::string MergeableProfile::folded() const {
  std::string out;
  for (const auto& [path, ticks] : stacks) {
    out += path;
    out += ' ';
    out += std::to_string(ticks);
    out += '\n';
  }
  return out;
}

}  // namespace teeperf::analyzer
