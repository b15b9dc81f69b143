#include "common/session_registry.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/fileutil.h"
#include "common/spin.h"
#include "common/stringutil.h"

namespace teeperf::session_registry {

namespace {

// Descriptor names become filenames and shm names; keep them to a safe
// charset so a hostile $TEEPERF_SESSION_DIR peer cannot smuggle path
// components through a descriptor.
bool name_is_safe(std::string_view name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

std::string descriptor_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".json";
}

void json_string(std::string* out, std::string_view key, std::string_view v) {
  *out += "\"";
  *out += key;
  *out += "\":\"";
  for (char c : v) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      *out += c;
    }
  }
  *out += "\",";
}

void json_number(std::string* out, std::string_view key, u64 v) {
  *out += "\"";
  *out += key;
  *out += "\":";
  *out += std::to_string(v);
  *out += ",";
}

// Finds `"key":` in `json` and returns the position just past the colon, or
// npos. Good enough for the flat objects to_json() writes.
usize find_value(std::string_view json, std::string_view key) {
  std::string needle = "\"" + std::string(key) + "\":";
  usize pos = json.find(needle);
  if (pos == std::string_view::npos) return pos;
  return pos + needle.size();
}

bool parse_string(std::string_view json, std::string_view key, std::string* out) {
  usize pos = find_value(json, key);
  if (pos == std::string_view::npos || pos >= json.size() || json[pos] != '"') {
    return false;
  }
  out->clear();
  for (usize i = pos + 1; i < json.size(); ++i) {
    char c = json[i];
    if (c == '\\' && i + 1 < json.size()) {
      out->push_back(json[++i]);
    } else if (c == '"') {
      return true;
    } else {
      out->push_back(c);
    }
  }
  return false;  // unterminated
}

bool parse_number(std::string_view json, std::string_view key, u64* out) {
  usize pos = find_value(json, key);
  if (pos == std::string_view::npos) return false;
  u64 v = 0;
  bool any = false;
  for (usize i = pos; i < json.size() && json[i] >= '0' && json[i] <= '9'; ++i) {
    v = v * 10 + static_cast<u64>(json[i] - '0');
    any = true;
  }
  if (any) *out = v;
  return any;
}

// Parses "teeperf.<pid>.<nonce>.log|.obs" (no leading slash) into the
// owner pid and the nonce's hex digits; false when the name is not in the
// session-shm scheme. Only names in this exact shape are GC candidates —
// legacy or foreign "/teeperf.*" segments are never touched.
bool parse_session_shm(std::string_view shm_file, u64* pid,
                       std::string_view* nonce) {
  if (!starts_with(shm_file, "teeperf.")) return false;
  if (!ends_with(shm_file, ".log") && !ends_with(shm_file, ".obs")) return false;
  std::string_view rest = shm_file.substr(8, shm_file.size() - 8 - 4);
  usize dot = rest.find('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 >= rest.size()) {
    return false;
  }
  u64 p = 0;
  for (char c : rest.substr(0, dot)) {
    if (c < '0' || c > '9') return false;
    p = p * 10 + static_cast<u64>(c - '0');
  }
  for (char c : rest.substr(dot + 1)) {  // nonce: lowercase hex only
    bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  *pid = p;
  *nonce = rest.substr(dot + 1);
  return p != 0;
}

// The owner pid of a session-shm name, or 0 when it is not one.
u64 session_shm_pid(std::string_view shm_file) {
  u64 pid = 0;
  std::string_view nonce;
  return parse_session_shm(shm_file, &pid, &nonce) ? pid : 0;
}

// FNV-1a of the dir path without trailing slashes, folded to 32 bits: the
// high half of every nonce made for `dir`.
u64 dir_tag(std::string_view dir) {
  while (dir.size() > 1 && dir.back() == '/') dir.remove_suffix(1);
  u64 h = 0xcbf29ce484222325ull;
  for (char c : dir) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return (h ^ (h >> 32)) & 0xffffffffull;
}

}  // namespace

std::string registry_dir() {
  const char* env = std::getenv("TEEPERF_SESSION_DIR");
  if (env && *env) return env;
  return "/tmp/teeperf-sessions";
}

u64 make_nonce(const std::string& dir) {
  static std::atomic<u64> counter{0};
  u64 seq = counter.fetch_add(1, std::memory_order_relaxed);
  // splitmix64 over (time, pid, sequence) — well spread without needing a
  // random source, and distinct across forked children.
  u64 x = monotonic_ns() ^ (static_cast<u64>(getpid()) << 32) ^ (seq << 1);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return dir_tag(dir) << 32 | ((x ^ (x >> 31)) & 0xffffffffull);
}

std::string shm_base(u64 pid, u64 nonce) {
  return str_format("/teeperf.%llu.%016llx", static_cast<unsigned long long>(pid),
                    static_cast<unsigned long long>(nonce));
}

std::string to_json(const SessionDescriptor& d) {
  std::string out = "{";
  json_string(&out, "name", d.name);
  json_number(&out, "pid", d.pid);
  json_string(&out, "log_shm", d.log_shm);
  json_string(&out, "obs_shm", d.obs_shm);
  json_string(&out, "prefix", d.prefix);
  json_number(&out, "capacity", d.capacity);
  json_number(&out, "shards", d.shards);
  json_number(&out, "start_ns", d.start_ns);
  if (d.pid_start) json_number(&out, "pid_start", d.pid_start);
  out.back() = '}';
  out += "\n";
  return out;
}

bool from_json(std::string_view json, SessionDescriptor* out) {
  SessionDescriptor d;
  if (!parse_string(json, "name", &d.name) || !name_is_safe(d.name)) {
    return false;
  }
  if (!parse_number(json, "pid", &d.pid)) return false;
  parse_string(json, "log_shm", &d.log_shm);
  parse_string(json, "obs_shm", &d.obs_shm);
  parse_string(json, "prefix", &d.prefix);
  parse_number(json, "capacity", &d.capacity);
  u64 shards = 0;
  if (parse_number(json, "shards", &shards)) d.shards = static_cast<u32>(shards);
  parse_number(json, "start_ns", &d.start_ns);
  parse_number(json, "pid_start", &d.pid_start);
  *out = std::move(d);
  return true;
}

bool publish_session(const std::string& dir, const SessionDescriptor& d) {
  if (!name_is_safe(d.name)) return false;
  if (!make_dirs(dir)) return false;
  // tmp + rename so a concurrent list_sessions() never reads a half-written
  // descriptor. The tmp name carries the pid so two publishers of the same
  // session name (which would be a caller bug) cannot corrupt each other.
  std::string tmp = str_format("%s/.%s.%llu.tmp", dir.c_str(), d.name.c_str(),
                               static_cast<unsigned long long>(d.pid));
  if (!write_file(tmp, to_json(d))) return false;
  if (::rename(tmp.c_str(), descriptor_path(dir, d.name).c_str()) != 0) {
    remove_file(tmp);
    return false;
  }
  return true;
}

bool unpublish_session(const std::string& dir, const std::string& name) {
  if (!name_is_safe(name)) return false;
  return remove_file(descriptor_path(dir, name));
}

std::vector<SessionDescriptor> list_sessions(const std::string& dir) {
  std::vector<SessionDescriptor> out;
  DIR* d = ::opendir(dir.c_str());
  if (!d) return out;
  while (struct dirent* ent = ::readdir(d)) {
    std::string file = ent->d_name;
    if (!ends_with(file, ".json")) continue;
    auto text = read_file(dir + "/" + file);
    if (!text) continue;
    SessionDescriptor desc;
    if (!from_json(*text, &desc)) continue;
    // The filename is authoritative; a descriptor whose body disagrees
    // (copied by hand, or tampered with) is skipped rather than trusted.
    if (file != desc.name + ".json") continue;
    out.push_back(std::move(desc));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const SessionDescriptor& a, const SessionDescriptor& b) {
              return a.name < b.name;
            });
  return out;
}

bool pid_alive(u64 pid) {
  if (pid == 0) return false;
  if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
  return errno == EPERM;  // alive but not ours
}

u64 process_start_time(u64 pid) {
  auto stat = read_file(str_format("/proc/%llu/stat",
                                   static_cast<unsigned long long>(pid)));
  if (!stat) return 0;
  // "pid (comm) state ..." — comm may hold spaces and parentheses, so count
  // fields from the last ')': state is field 3, starttime field 22.
  usize paren = stat->rfind(')');
  if (paren == std::string::npos) return 0;
  std::vector<std::string_view> fields;
  for (std::string_view f : split(std::string_view(*stat).substr(paren + 1), ' ')) {
    if (!f.empty()) fields.push_back(f);
  }
  if (fields.size() < 20) return 0;
  u64 start = 0;
  for (char c : fields[19]) {
    if (c < '0' || c > '9') return 0;
    start = start * 10 + static_cast<u64>(c - '0');
  }
  return start;
}

bool owner_alive(const SessionDescriptor& d) {
  if (!pid_alive(d.pid)) return false;
  if (d.pid_start == 0) return true;
  // A start time that cannot be read (no /proc) proves nothing either way.
  u64 now = process_start_time(d.pid);
  return now == 0 || now == d.pid_start;
}

GcResult gc_stale_sessions(const std::string& dir) {
  GcResult r;
  // Pass 1: descriptors. Dead owner → unlink the segments it names, then
  // the descriptor itself. Unparseable descriptor files are garbage (the
  // write path is atomic, so they were never valid) and are dropped too.
  DIR* d = ::opendir(dir.c_str());
  if (d) {
    std::vector<std::string> files;
    while (struct dirent* ent = ::readdir(d)) {
      std::string file = ent->d_name;
      if (ends_with(file, ".json")) files.push_back(std::move(file));
    }
    ::closedir(d);
    for (const std::string& file : files) {
      auto text = read_file(dir + "/" + file);
      if (!text) continue;
      SessionDescriptor desc;
      bool parsed = from_json(*text, &desc) && file == desc.name + ".json";
      if (parsed && owner_alive(desc)) continue;
      if (parsed) {
        for (const std::string& shm : {desc.log_shm, desc.obs_shm}) {
          // Only unlink names the registry scheme could have produced —
          // a tampered descriptor must not become a deletion primitive.
          if (!shm.empty() && shm[0] == '/' &&
              session_shm_pid(shm.substr(1)) == desc.pid) {
            if (::shm_unlink(shm.c_str()) == 0) ++r.segments;
          }
        }
      }
      if (remove_file(dir + "/" + file)) ++r.descriptors;
    }
  }

  // Pass 2: orphaned segments with no descriptor (a session killed between
  // shm creation and publish). Only the exact "teeperf.<pid>.<nonce>.*"
  // shape is considered, only when the nonce was made for this dir, and
  // only when that pid is dead.
  DIR* shm_dir = ::opendir("/dev/shm");
  if (shm_dir) {
    std::string own_tag =
        str_format("%08llx", static_cast<unsigned long long>(dir_tag(dir)));
    std::vector<std::string> orphans;
    while (struct dirent* ent = ::readdir(shm_dir)) {
      u64 pid = 0;
      std::string_view nonce;
      if (parse_session_shm(ent->d_name, &pid, &nonce) && nonce.size() == 16 &&
          starts_with(nonce, own_tag) && !pid_alive(pid)) {
        orphans.emplace_back(ent->d_name);
      }
    }
    ::closedir(shm_dir);
    for (const std::string& name : orphans) {
      if (::shm_unlink(("/" + name).c_str()) == 0) ++r.segments;
    }
  }
  return r;
}

}  // namespace teeperf::session_registry
