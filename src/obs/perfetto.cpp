#include "obs/perfetto.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/json.hpp"
#include "obs/activity.hpp"

namespace dfc::obs {

namespace {

// Track-group ("process") ids in the exported file. These are presentation
// handles for the Perfetto UI, not OS processes.
constexpr int kCorePid = 1;
constexpr int kFifoPid = 2;
constexpr int kServePid = 3;
constexpr int kLinkPid = 4;

int entity_pid(EntityKind kind) {
  switch (kind) {
    case EntityKind::kFifo: return kFifoPid;
    case EntityKind::kProcess: return kCorePid;
    case EntityKind::kLink: return kLinkPid;
    case EntityKind::kServe: return kServePid;
  }
  return kCorePid;
}

class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {}

  void raw(const std::string& line) {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << line;
  }

  void meta(int pid, int tid, const std::string& key, const std::string& value) {
    std::ostringstream l;
    l << "{\"ph\":\"M\",\"pid\":" << pid;
    if (tid >= 0) l << ",\"tid\":" << tid;
    l << ",\"name\":\"" << key << "\",\"args\":{\"name\":\"" << json_escape(value) << "\"}}";
    raw(l.str());
  }

  void sort_index(int pid, int tid, std::uint32_t index) {
    std::ostringstream l;
    l << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << index << "}}";
    raw(l.str());
  }

  void slice(int pid, int tid, std::uint64_t ts, std::uint64_t dur, const std::string& name) {
    std::ostringstream l;
    l << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid << ",\"ts\":" << ts
      << ",\"dur\":" << dur << ",\"name\":\"" << json_escape(name) << "\"}";
    raw(l.str());
  }

  void counter(int pid, std::uint64_t ts, const std::string& name, std::uint64_t value,
               const char* arg = "occupancy") {
    std::ostringstream l;
    l << "{\"ph\":\"C\",\"pid\":" << pid << ",\"ts\":" << ts << ",\"name\":\""
      << json_escape(name) << "\",\"args\":{\"" << arg << "\":" << value << "}}";
    raw(l.str());
  }

  /// Async begin/end ("b"/"e"): spans of different requests overlap on one
  /// serve track, so they pair up by (cat, id) instead of stack nesting.
  void async_span(char phase, int pid, int tid, std::uint64_t ts, const char* cat,
                  std::uint32_t id, const std::string& name) {
    std::ostringstream l;
    l << "{\"ph\":\"" << phase << "\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"ts\":" << ts << ",\"id\":" << id << ",\"cat\":\"" << cat
      << "\",\"name\":\"" << json_escape(name) << "\"}";
    raw(l.str());
  }

  void flow(char phase, int pid, int tid, std::uint64_t ts, std::uint32_t id) {
    std::ostringstream l;
    l << "{\"ph\":\"" << phase << "\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"ts\":" << ts << ",\"id\":" << id << ",\"cat\":\"image\",\"name\":\"image\"";
    if (phase == 'f') l << ",\"bp\":\"e\"";
    l << "}";
    raw(l.str());
  }

 private:
  std::ostream& os_;
  bool first_ = true;
};

}  // namespace

void write_perfetto_trace(const TraceSink& sink, std::ostream& os) {
  const auto& events = sink.events();
  const auto& entities = sink.entities();

  // Per-entity event index, preserving chronological record order.
  std::vector<std::vector<std::size_t>> by_entity(entities.size());
  std::uint64_t end_cycle = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    by_entity[events[i].entity].push_back(i);
    end_cycle = std::max(end_cycle, events[i].cycle);
  }
  ++end_cycle;  // open slices close one cycle past the last event

  os << "{\"traceEvents\":[\n";
  EventWriter w(os);

  w.meta(kCorePid, -1, "process_name", "cores");
  w.meta(kFifoPid, -1, "process_name", "fifos");
  bool have_serve = false;
  bool have_link = false;
  for (std::uint32_t id = 0; id < entities.size(); ++id) {
    if (by_entity[id].empty()) continue;
    have_serve = have_serve || entities[id].kind == EntityKind::kServe;
    have_link = have_link || entities[id].kind == EntityKind::kLink;
  }
  if (have_serve) w.meta(kServePid, -1, "process_name", "serve");
  if (have_link) w.meta(kLinkPid, -1, "process_name", "links");

  for (std::uint32_t id = 0; id < entities.size(); ++id) {
    const TraceEntity& e = entities[id];
    if (by_entity[id].empty()) continue;  // silent entity: no track
    const int pid = entity_pid(e.kind);
    const int tid = static_cast<int>(id) + 1;
    w.meta(pid, tid, "thread_name", e.name);
    w.sort_index(pid, tid, id);
  }

  for (std::uint32_t id = 0; id < entities.size(); ++id) {
    const TraceEntity& e = entities[id];
    const auto& idx = by_entity[id];
    if (idx.empty()) continue;
    const int tid = static_cast<int>(id) + 1;

    if (e.kind == EntityKind::kProcess) {
      // Activity states become duration slices (idle = gap); image markers
      // become 1-cycle slices carrying a flow arrow from injection (source
      // track) to completion (sink track).
      bool open = false;
      CoreState open_state = CoreState::kIdle;
      std::uint64_t open_since = 0;
      auto close_run = [&](std::uint64_t at) {
        if (open && open_state != CoreState::kIdle && at > open_since) {
          w.slice(kCorePid, tid, open_since, at - open_since, core_state_name(open_state));
        }
      };
      for (std::size_t i : idx) {
        const TraceEvent& ev = events[i];
        switch (ev.kind) {
          case EventKind::kCoreState: {
            close_run(ev.cycle);
            open = true;
            open_state = static_cast<CoreState>(ev.value);
            open_since = ev.cycle;
            break;
          }
          case EventKind::kImageStart:
            w.slice(kCorePid, tid, ev.cycle, 1, "img " + std::to_string(ev.value));
            w.flow('s', kCorePid, tid, ev.cycle, ev.value);
            break;
          case EventKind::kImageDone:
            w.slice(kCorePid, tid, ev.cycle, 1, "img " + std::to_string(ev.value));
            w.flow('f', kCorePid, tid, ev.cycle, ev.value);
            break;
          case EventKind::kFaultDetect:
            // DMA sink stream guard firing (framing/range).
            w.slice(kCorePid, tid, ev.cycle, 1, "fault_detect");
            break;
          default:
            break;  // FIFO kinds never carry a process entity
        }
      }
      close_run(end_cycle);
      continue;
    }

    if (e.kind == EntityKind::kServe) {
      // Serve-layer spans: async begin/end pairs keyed by (phase, id) so
      // overlapping requests share one track; sheds become 1-cycle markers.
      for (std::size_t i : idx) {
        const TraceEvent& ev = events[i];
        if (ev.kind != EventKind::kSpanBegin && ev.kind != EventKind::kSpanEnd) continue;
        const SpanPhase phase = span_phase(ev.value);
        const std::uint32_t sid = span_id(ev.value);
        if (phase == SpanPhase::kShed) {
          if (ev.kind == EventKind::kSpanBegin) {
            w.slice(kServePid, tid, ev.cycle, 1, "shed " + std::to_string(sid));
          }
          continue;
        }
        const char ph = ev.kind == EventKind::kSpanBegin ? 'b' : 'e';
        w.async_span(ph, kServePid, tid, ev.cycle, span_phase_name(phase), sid,
                     std::string(span_phase_name(phase)) + " " + std::to_string(sid));
      }
      continue;
    }

    if (e.kind == EntityKind::kLink) {
      // Interlink: attribution-state slices (idle = gap) + available-credit
      // counter, both emitted on change by the LinkTracker.
      const std::string credit_name = e.name + " credits";
      bool open = false;
      LinkState open_state = LinkState::kIdle;
      std::uint64_t open_since = 0;
      auto close_run = [&](std::uint64_t at) {
        if (open && open_state != LinkState::kIdle && at > open_since) {
          w.slice(kLinkPid, tid, open_since, at - open_since, link_state_name(open_state));
        }
      };
      for (std::size_t i : idx) {
        const TraceEvent& ev = events[i];
        switch (ev.kind) {
          case EventKind::kLinkState:
            close_run(ev.cycle);
            open = true;
            open_state = static_cast<LinkState>(ev.value);
            open_since = ev.cycle;
            break;
          case EventKind::kLinkCredits:
            w.counter(kLinkPid, ev.cycle, credit_name, ev.value, "credits");
            break;
          default:
            break;
        }
      }
      close_run(end_cycle);
      continue;
    }

    // FIFO: occupancy counter (post-commit value per cycle with traffic) and
    // merged stall windows.
    const std::string occ_name = e.name + " occ";
    std::uint64_t occ = 0;
    std::uint64_t cur_cycle = ~std::uint64_t{0};
    std::int64_t delta = 0;
    auto flush_counter = [&] {
      if (cur_cycle == ~std::uint64_t{0} || delta == 0) return;
      occ = static_cast<std::uint64_t>(static_cast<std::int64_t>(occ) + delta);
      w.counter(kFifoPid, cur_cycle, occ_name, occ);
      delta = 0;
    };
    // Stall-run merger per kind (full, empty).
    struct StallRun {
      bool open = false;
      std::uint64_t since = 0;
      std::uint64_t last = 0;
    };
    StallRun runs[2];
    const char* run_names[2] = {"full_stall", "empty_stall"};
    auto feed_run = [&](int which, std::uint64_t cycle) {
      StallRun& r = runs[which];
      if (r.open && cycle == r.last + 1) {
        r.last = cycle;
        return;
      }
      if (r.open) w.slice(kFifoPid, tid, r.since, r.last - r.since + 1, run_names[which]);
      r.open = true;
      r.since = r.last = cycle;
    };

    for (std::size_t i : idx) {
      const TraceEvent& ev = events[i];
      if (ev.cycle != cur_cycle) {
        flush_counter();
        cur_cycle = ev.cycle;
      }
      switch (ev.kind) {
        case EventKind::kPush: ++delta; break;
        case EventKind::kPop: --delta; break;
        case EventKind::kFullStall: feed_run(0, ev.cycle); break;
        case EventKind::kEmptyStall: feed_run(1, ev.cycle); break;
        case EventKind::kFaultInject:
          w.slice(kFifoPid, tid, ev.cycle, 1, "fault_inject");
          // Keep the occupancy counter honest: value is the df::kFaultTrace*
          // id — a dropped flit (2) leaves without a kPop, a duplicated
          // one (3) appears without a kPush.
          if (ev.value == 2) --delta;
          if (ev.value == 3) ++delta;
          break;
        case EventKind::kFaultDetect:
          w.slice(kFifoPid, tid, ev.cycle, 1, "fault_detect");
          break;
        default: break;
      }
    }
    flush_counter();
    for (int which = 0; which < 2; ++which) {
      const StallRun& r = runs[which];
      if (r.open) w.slice(kFifoPid, tid, r.since, r.last - r.since + 1, run_names[which]);
    }
  }

  os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{"
     << "\"time_unit\":\"1 ts = 1 fabric cycle\","
     << "\"events_recorded\":" << events.size() << ","
     << "\"events_dropped\":" << sink.dropped() << "}}\n";
}

std::string perfetto_trace_json(const TraceSink& sink) {
  std::ostringstream os;
  write_perfetto_trace(sink, os);
  return os.str();
}

}  // namespace dfc::obs
