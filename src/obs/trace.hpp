// Cycle-accurate event tracing for the dataflow simulator.
//
// A TraceSink collects compact, cycle-stamped records of everything that
// happens inside one SimContext: FIFO pushes/pops, full/empty stalls, core
// activity-state changes and DMA image markers. Events carry only integers
// (cycle, entity id, kind, value) — no wall-clock time, no pointers — so a
// trace of the same design and workload is byte-identical across runs,
// machines and DFCNN_SWEEP_THREADS settings.
//
// The sink is a passive buffer: entities are registered once (FIFOs and
// processes, by the SimContext at attach time) and then record events
// through a raw pointer held by the instrumented object. A null pointer
// means tracing is off, so the disabled-mode cost on the simulation hot path
// is one predictable branch per hook.
//
// Storage is a preallocated flat buffer of fixed-size records. When the
// capacity is exhausted, *new* events are dropped (and counted) rather than
// old ones: keeping the prefix contiguous preserves exact FIFO-occupancy
// reconstruction in the exporter, and a truncated tail is visible in the
// Perfetto UI as tracks that simply end early.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dfc::obs {

/// What happened. Values are part of the on-disk trace vocabulary; the
/// Perfetto exporter maps them to slices, counters and flow arrows.
enum class EventKind : std::uint8_t {
  kPush = 0,        ///< FIFO accepted a push (value: pushes so far)
  kPop = 1,         ///< FIFO served a pop (value: pops so far)
  kFullStall = 2,   ///< producer wanted to push, FIFO full
  kEmptyStall = 3,  ///< consumer wanted to pop, FIFO empty
  kCoreState = 4,   ///< a core's activity classification changed (value: CoreState)
  kImageStart = 5,  ///< DMA source injected the first word of image `value`
  kImageDone = 6,   ///< DMA sink received the last word of image `value`
  kFaultInject = 7,  ///< fault injector mutated this entity (value: FaultKind)
  kFaultDetect = 8,  ///< an integrity guard fired on this entity (value: detector id)
  kLinkState = 9,    ///< an interlink's attribution class changed (value: LinkState)
  kLinkCredits = 10, ///< an interlink's available-credit count changed (value: credits)
  kSpanBegin = 11,   ///< serve-layer span opened (value: span_value(phase, id))
  kSpanEnd = 12,     ///< serve-layer span closed (value: span_value(phase, id))
};

/// Is the entity a channel, a module, an inter-device link, or a serve-layer
/// track? Determines its Perfetto track group (pid).
enum class EntityKind : std::uint8_t { kFifo = 0, kProcess = 1, kLink = 2, kServe = 3 };

/// Serve-layer span phases. The phase travels in the top 4 bits of the event
/// value so begin/end pairs for the same request/batch id match up even when
/// spans of different requests interleave on one entity.
enum class SpanPhase : std::uint8_t {
  kQueued = 0,    ///< request admitted -> dispatched (id: request id)
  kExecute = 1,   ///< request dispatched -> completed (id: request id)
  kAssemble = 2,  ///< oldest rider's arrival -> batch dispatch (id: batch id)
  kBatch = 3,     ///< batch dispatch -> completion on a replica (id: batch id)
  kShed = 4,      ///< request rejected by admission control (id: request id)
};

inline const char* span_phase_name(SpanPhase p) {
  switch (p) {
    case SpanPhase::kQueued: return "queued";
    case SpanPhase::kExecute: return "execute";
    case SpanPhase::kAssemble: return "assemble";
    case SpanPhase::kBatch: return "batch";
    case SpanPhase::kShed: return "shed";
  }
  return "?";
}

/// Packs a span phase + request/batch id into a 32-bit event value. Ids are
/// truncated to 28 bits — serving runs of > 268M requests would wrap, which
/// is far beyond any simulated batch.
inline std::uint32_t span_value(SpanPhase phase, std::uint64_t id) {
  return (static_cast<std::uint32_t>(phase) << 28) |
         (static_cast<std::uint32_t>(id) & 0x0FFFFFFFu);
}
inline SpanPhase span_phase(std::uint32_t value) {
  return static_cast<SpanPhase>(value >> 28);
}
inline std::uint32_t span_id(std::uint32_t value) { return value & 0x0FFFFFFFu; }

/// One trace record. 16 bytes; a few million of these cover a full batch.
struct TraceEvent {
  std::uint64_t cycle = 0;
  std::uint32_t entity = 0;
  EventKind kind = EventKind::kPush;
  std::uint32_t value = 0;
};

/// A registered FIFO or process.
struct TraceEntity {
  std::string name;
  EntityKind kind = EntityKind::kProcess;
  std::size_t capacity = 0;  ///< FIFO capacity (0 for processes)
};

class TraceSink {
 public:
  /// `capacity` bounds the event buffer (records, not bytes); the default
  /// holds several USPS-sized batches. Memory is reserved lazily on the
  /// first record.
  explicit TraceSink(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {
    DFC_REQUIRE(capacity_ > 0, "TraceSink capacity must be positive");
  }

  /// Registers an entity and returns its id (dense, starting at 0).
  std::uint32_t register_entity(std::string name, EntityKind kind, std::size_t capacity = 0) {
    entities_.push_back(TraceEntity{std::move(name), kind, capacity});
    return static_cast<std::uint32_t>(entities_.size() - 1);
  }

  /// Appends one event; drops (and counts) it when the buffer is full.
  void record(std::uint32_t entity, EventKind kind, std::uint64_t cycle,
              std::uint32_t value = 0) {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    if (events_.capacity() == 0) events_.reserve(std::min<std::size_t>(capacity_, 1u << 16));
    events_.push_back(TraceEvent{cycle, entity, kind, value});
  }

  /// Appends `from`'s events as if recorded here, entity ids shifted by
  /// `entity_base`, and counts the events `from` itself dropped.
  void append(const TraceSink& from, std::uint32_t entity_base) {
    for (const TraceEvent& ev : from.events_) {
      record(ev.entity + entity_base, ev.kind, ev.cycle, ev.value);
    }
    dropped_ += from.dropped_;
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<TraceEntity>& entities() const { return entities_; }
  const TraceEntity& entity(std::uint32_t id) const { return entities_.at(id); }

  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Forgets recorded events (entity registrations are kept); a harness can
  /// call this between batches to trace only the window of interest.
  void clear_events() {
    events_.clear();
    dropped_ = 0;
  }

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 22;

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> events_;
  std::vector<TraceEntity> entities_;
  std::uint64_t dropped_ = 0;
};

}  // namespace dfc::obs
