#include "obs/events.h"

#include <algorithm>
#include <cstring>

#include "common/spin.h"

namespace teeperf::obs {

const char* event_type_name(EventType type) {
  switch (type) {
    case EventType::kAttach: return "attach";
    case EventType::kDetach: return "detach";
    case EventType::kActivate: return "activate";
    case EventType::kDeactivate: return "deactivate";
    case EventType::kCounterStall: return "counter_stall";
    case EventType::kCounterDrift: return "counter_drift";
    case EventType::kCounterRecover: return "counter_recover";
    case EventType::kEpcPressure: return "epc_pressure";
    case EventType::kRingWrap: return "ring_wrap";
    case EventType::kLogSaturated: return "log_saturated";
    case EventType::kTornTail: return "torn_tail";
    case EventType::kSamplerStart: return "sampler_start";
    case EventType::kSamplerStop: return "sampler_stop";
    case EventType::kDrainStall: return "drain_stall";
    case EventType::kSessionGc: return "session_gc";
    case EventType::kCounterBackjump: return "counter_backjump";
    case EventType::kCounterFailover: return "counter_failover";
  }
  return "?";
}

void EventJournal::record(EventType type, u64 arg0, u64 arg1,
                          std::string_view detail, u32 tid) {
  if (!layout_.valid()) return;
  u64 seq = layout_.header->journal_seq.fetch_add(1, std::memory_order_relaxed);
  EventRecord& r = layout_.events[seq % layout_.header->journal_capacity];
  // Invalidate first so a concurrent reader of the overwritten slot drops
  // it rather than pairing the old seq with new fields.
  r.seq.store(0, std::memory_order_release);
  r.t_ns = monotonic_ns();
  r.type = static_cast<u32>(type);
  r.tid = tid;
  r.arg0 = arg0;
  r.arg1 = arg1;
  usize n = std::min(detail.size(), sizeof(r.detail) - 1);
  // An empty view may carry a null data(); memcpy from null is undefined
  // even for zero bytes.
  if (n > 0) std::memcpy(r.detail, detail.data(), n);
  r.detail[n] = '\0';
  r.seq.store(seq + 1, std::memory_order_release);  // commit
}

u64 EventJournal::total() const {
  return layout_.valid()
             ? layout_.header->journal_seq.load(std::memory_order_relaxed)
             : 0;
}

std::vector<Event> EventJournal::snapshot() const {
  std::vector<Event> out;
  if (!layout_.valid()) return out;
  u32 cap = layout_.header->journal_capacity;
  out.reserve(cap);
  for (u32 i = 0; i < cap; ++i) {
    const EventRecord& r = layout_.events[i];
    u64 seq = r.seq.load(std::memory_order_acquire);
    if (seq == 0) continue;
    Event e;
    e.seq = seq;
    e.t_ns = r.t_ns;
    e.type = static_cast<EventType>(r.type);
    e.tid = r.tid;
    e.arg0 = r.arg0;
    e.arg1 = r.arg1;
    std::memcpy(e.detail, r.detail, sizeof(e.detail));
    e.detail[sizeof(e.detail) - 1] = '\0';
    // Re-check the commit marker: if the slot was recycled while we copied,
    // the copy may be torn — drop it.
    if (r.seq.load(std::memory_order_acquire) != seq) continue;
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

}  // namespace teeperf::obs
