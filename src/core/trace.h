// Causal action tracing (the observability tentpole).
//
// A TraceRecorder collects spans (timed intervals: a bind, a commit
// phase, an RPC) and instant events (a probe failure, a timeout) keyed to
// sim::SimTime, with parent/child links derived from the ambient
// TraceContext (util/trace_context.h). Because the context rides the RPC
// wire format and the group-invocation payload, one application action's
// bind -> lock -> prepare -> commit -> Exclude/Include -> recovery path
// forms a single connected tree even across nodes.
//
// Storage is a bounded ring: when `capacity` events are held, the oldest
// are dropped (and counted) so tracing stays cheap enough to leave on for
// the whole 750-cell robustness campaign. The recorder never schedules
// simulator events, consumes randomness, or branches application logic on
// trace state — enabling tracing cannot perturb the simulation (the
// determinism guard in tests/trace_test.cpp holds it to that).
//
// Exporters:
//   * chrome_trace_json(): Chrome trace-event JSON ("X" duration events
//     with explicit span/parent args, "i" instants) loadable in Perfetto
//     or about:tracing — pid = node, tid = trace (one lane per action).
//   * tail(n): the last n events as a human-readable timeline, dumped by
//     gv_campaign next to the --replay command of a violating cell.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/node.h"
#include "sim/simulator.h"
#include "util/trace_context.h"

namespace gv::core {

enum class TraceKind : std::uint8_t { Begin, Instant };

struct TraceEvent {
  TraceKind kind = TraceKind::Instant;
  // Begin only: set when the span ended while its event was still in the
  // ring. Span ends are folded into the Begin slot (not appended as
  // separate events) so a span costs one ring push, not two.
  bool ended = false;
  std::uint64_t trace = 0;   // tree id (root span's id)
  std::uint64_t span = 0;    // this span (Begin) or owning span (Instant)
  std::uint64_t parent = 0;  // Begin only: enclosing span (0 = root)
  sim::SimTime at = 0;
  sim::SimTime end_at = 0;  // Begin only: valid when `ended`
  sim::NodeId node = 0;
  // Must point at static storage (callers pass string literals): events
  // are recorded on the hot path of every RPC, so the component tag is
  // not copied. "rpc", "binder", "commit", ...
  const char* component = "gv";
  std::string name;     // "bind.getserver", "commit.2pc", ...
  std::string detail;   // free-form: object uid, op name
  std::string outcome;  // Begin only: detail passed to Span::end
};

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit TraceRecorder(sim::Simulator& sim) : sim_(sim) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void enable(std::size_t capacity = kDefaultCapacity);
  bool enabled() const noexcept { return enabled_; }

  // RAII span handle. Inert (no-op) when default-constructed or begun on
  // a disabled recorder; safe to hold across co_await (ends on
  // destruction if not ended explicitly). Ending restores the trace
  // context that was ambient when the span began.
  class Span {
   public:
    Span() = default;
    Span(Span&& o) noexcept { *this = std::move(o); }
    Span& operator=(Span&& o) noexcept {
      if (this != &o) {
        end();
        rec_ = o.rec_;
        ctx_ = o.ctx_;
        prev_ = o.prev_;
        slot_ = o.slot_;
        o.rec_ = nullptr;
      }
      return *this;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { end(); }

    bool active() const noexcept { return rec_ != nullptr; }
    TraceContext context() const noexcept { return ctx_; }

    void end(std::string detail = {});

   private:
    friend class TraceRecorder;
    Span(TraceRecorder* rec, TraceContext ctx, TraceContext prev, std::size_t slot)
        : rec_(rec), ctx_(ctx), prev_(prev), slot_(slot) {}
    TraceRecorder* rec_ = nullptr;
    TraceContext ctx_{};
    TraceContext prev_{};
    // Ring index of this span's Begin event; validated against the span
    // id at end time (the slot may have been recycled by eviction).
    std::size_t slot_ = 0;
  };

  // Begin a span as a child of the ambient context (a fresh root when
  // none) and make it the ambient context until it ends.
  Span begin_span(std::string name, sim::NodeId node, const char* component,
                  std::string detail = {}) {
    return begin_span_under(current_trace_context(), std::move(name), node, component,
                            std::move(detail));
  }

  // Begin a span under an explicit parent — e.g. a context carried over
  // the RPC wire or inside a group-multicast payload.
  Span begin_span_under(TraceContext parent, std::string name, sim::NodeId node,
                        const char* component, std::string detail = {});

  // Record an instant event against the ambient context.
  void instant(std::string name, sim::NodeId node, const char* component,
               std::string detail = {});

  // Oldest-first view over the ring. A lightweight non-owning range:
  // references obtained through it stay valid until the next recorded
  // event (which may overwrite the oldest slot).
  class EventRange {
   public:
    class iterator {
     public:
      iterator(const TraceRecorder* rec, std::size_t i) : rec_(rec), i_(i) {}
      const TraceEvent& operator*() const { return rec_->at(i_); }
      const TraceEvent* operator->() const { return &rec_->at(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const iterator& o) const { return i_ == o.i_; }
      bool operator!=(const iterator& o) const { return i_ != o.i_; }

     private:
      const TraceRecorder* rec_;
      std::size_t i_;
    };
    std::size_t size() const noexcept { return rec_->ring_.size(); }
    bool empty() const noexcept { return rec_->ring_.empty(); }
    iterator begin() const { return {rec_, 0}; }
    iterator end() const { return {rec_, rec_->ring_.size()}; }

   private:
    friend class TraceRecorder;
    explicit EventRange(const TraceRecorder* rec) : rec_(rec) {}
    const TraceRecorder* rec_;
  };

  EventRange events() const noexcept { return EventRange{this}; }
  std::size_t dropped() const noexcept { return dropped_; }
  void clear() {
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  // Chrome trace-event JSON (see header comment). Parents evicted from
  // the ring are reported as roots so the file never references a
  // dangling id; spans still open at export time run to sim "now".
  std::string chrome_trace_json() const;
  bool write_chrome_trace(const std::string& path) const;

  // Last `max_events` events, oldest first, one per line.
  std::string tail(std::size_t max_events) const;

 private:
  // The ring is a circular vector: slots past `capacity_` are never
  // allocated, and overwriting the oldest slot reuses its string storage
  // instead of churning allocator nodes (a deque here cost ~15% of a
  // campaign run; this keeps the overhead of leaving tracing on for all
  // 750 cells under 10%).
  const TraceEvent& at(std::size_t i) const noexcept {
    const std::size_t j = head_ + i;
    return ring_[j < ring_.size() ? j : j - ring_.size()];
  }
  TraceEvent& next_slot();

  sim::Simulator& sim_;
  bool enabled_ = false;
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t next_id_ = 1;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // index of the oldest event once the ring wraps
  std::size_t dropped_ = 0;
};

// Null-tolerant helpers: every instrumentation site takes a nullable
// recorder, so components outside a ReplicaSystem (unit fixtures, the
// ablation benches) run uninstrumented without branching at each call.
// Hot paths test tracing() first to skip building span names at all.
inline bool tracing(const TraceRecorder* rec) noexcept {
  return rec != nullptr && rec->enabled();
}

inline TraceRecorder::Span trace_span(TraceRecorder* rec, std::string name, sim::NodeId node,
                                      const char* component, std::string detail = {}) {
  if (rec == nullptr || !rec->enabled()) return {};
  return rec->begin_span(std::move(name), node, component, std::move(detail));
}

inline TraceRecorder::Span trace_span_under(TraceRecorder* rec, TraceContext parent,
                                            std::string name, sim::NodeId node,
                                            const char* component, std::string detail = {}) {
  if (rec == nullptr || !rec->enabled()) return {};
  return rec->begin_span_under(parent, std::move(name), node, component, std::move(detail));
}

inline void trace_instant(TraceRecorder* rec, std::string name, sim::NodeId node,
                          const char* component, std::string detail = {}) {
  if (rec == nullptr || !rec->enabled()) return;
  rec->instant(std::move(name), node, component, std::move(detail));
}

}  // namespace gv::core
