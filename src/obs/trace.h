#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cpdb::obs {

/// Wire-propagated trace identity: minted by a sampling client (or by the
/// server for its own slow-request/EXPLAIN collection), carried as an
/// optional field of every net/protocol request, and stamped onto every
/// span a request produces. trace_id 0 means "no context".
struct TraceContext {
  uint64_t trace_id = 0;
  /// Span id of the caller's enclosing span (the client's root); the
  /// server's root span reports it as its parent so a cross-process
  /// assembler can hang the server tree under the client span.
  uint64_t parent_span_id = 0;
  /// Sampled requests are stored in the trace store's recent rings;
  /// unsampled ones are collected only for the slow-request log.
  bool sampled = false;

  bool valid() const { return trace_id != 0; }
};

/// One timed stage of a traced request. Span ids are trace-local and
/// assigned by the SpanCollector; parent/child assembly is by id.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  /// Dotted stage name, e.g. "server.GETMOD", "session.latch_wait",
  /// "query.subtree_scan", "commit.seal".
  std::string kind;
  /// Free-form annotation (path text, verb name); may be empty.
  std::string detail;
  double start_us = 0;  ///< NowMicros() at open
  double dur_us = 0;
  // Cost attribution, snapshotted from the session CostModel / cursor
  // round-trip counters over the span (zero when not applicable).
  uint64_t rows = 0;
  uint64_t round_trips = 0;
  double cost_us = 0;  ///< modelled interaction cost charged in the span
  int64_t tid = -1;    ///< committed tid on commit.execute (-1 elsewhere)
};

/// Per-request scratch pad for the spans of ONE trace. Single-threaded by
/// construction: a connection's requests run on at most one worker at a
/// time, and the collector lives on that worker's stack for the duration
/// of one request. Spans are published to the engine's SpanStore in one
/// Record() call at request end.
///
/// An inactive collector (default-constructed, trace_id 0) turns every
/// method into a no-op returning 0/nullptr, so instrumented code paths
/// need no branching beyond a null check on the collector pointer.
class SpanCollector {
 public:
  /// Hard cap on spans per request: a runaway provenance walk must not
  /// turn one trace into an allocation storm. Overflow is counted.
  static constexpr size_t kMaxSpans = 128;

  SpanCollector() = default;
  explicit SpanCollector(TraceContext ctx)
      : ctx_(ctx),
        // Server span ids start past the caller's parent id so a wire
        // parent can never collide with (and mis-nest under) a local id.
        next_id_(ctx.parent_span_id + 1) {}

  bool active() const { return ctx_.trace_id != 0; }
  const TraceContext& context() const { return ctx_; }

  /// Opens a span (start stamped now). Returns its id, or 0 when the
  /// collector is inactive or full.
  uint64_t Open(const std::string& kind, uint64_t parent,
                std::string detail = std::string());

  /// Closes `id` (duration stamped now). No-op for id 0 / unknown ids.
  void Close(uint64_t id);

  /// Close() plus cost attribution in one call.
  void CloseWithCost(uint64_t id, uint64_t rows, uint64_t round_trips,
                     double cost_us);

  /// Appends an already-measured span (caller supplies start/duration —
  /// e.g. the commit queue's stage stamps). Returns its id, or 0 when
  /// inactive or full.
  uint64_t AppendTimed(const std::string& kind, uint64_t parent,
                       double start_us, double dur_us);

  Span* Find(uint64_t id);

  /// Id of the first opened span (the request root); 0 before any Open.
  uint64_t root_span_id() const {
    return spans_.empty() ? 0 : spans_.front().span_id;
  }

  uint64_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> Take() { return std::move(spans_); }

 private:
  TraceContext ctx_;
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Engine-level store of assembled traces — the ONE trace store: a slow
/// commit and a slow query are both a span tree here. Per-root-kind
/// recent rings hold sampled requests, one more ring holds slow
/// offenders. Backs the TRACES verb, the EXPLAIN verb's inline render,
/// and the slow-request stderr log (--slow-ms).
class SpanStore {
 public:
  explicit SpanStore(size_t capacity = 64, size_t slow_capacity = 64)
      : cap_(capacity == 0 ? 1 : capacity),
        slow_cap_(slow_capacity == 0 ? 1 : slow_capacity) {}

  /// <= 0 disables the slow-request log (the default).
  void SetSlowThresholdUs(double us) {
    slow_threshold_us_.store(us, std::memory_order_relaxed);
  }
  /// Lock-free: the server reads it on every request to decide whether
  /// to collect at all.
  double SlowThresholdUs() const {
    return slow_threshold_us_.load(std::memory_order_relaxed);
  }

  /// Records one request's spans (spans[0] must be the root). Sampled
  /// traces land in the recent ring of the root's kind; a root past the
  /// slow threshold is also copied into the slow ring and dumped to
  /// stderr as one "cpdb slow-request:" JSON line. Unsampled + fast
  /// records nothing (the caller should not even collect in that case).
  /// Returns true when the tree was captured as slow.
  bool Record(std::vector<Span> spans, bool sampled) CPDB_EXCLUDES(mu_);

  /// Sampled traces stored so far (slow-only captures not included).
  uint64_t recorded() const CPDB_EXCLUDES(mu_) {
    MutexLock l(mu_);
    return recorded_;
  }
  uint64_t slow_recorded() const CPDB_EXCLUDES(mu_) {
    MutexLock l(mu_);
    return slow_recorded_;
  }

  /// One span as a flat JSON object (no children).
  static std::string SpanJson(const Span& span);

  /// One trace assembled as a parent/child tree:
  /// {"trace_id":...,"spans":N,"root":{...,"children":[...]}}.
  /// Orphans (parent id not in the set) nest under the root so no span
  /// is ever silently dropped from the render.
  static std::string TreeJson(const std::vector<Span>& spans);

  /// Every ring rendered: {"slow_threshold_us":...,"recorded":N,
  /// "slow_recorded":M,"traces":[tree,...],"slow":[tree,...]} with up to
  /// `max_per_kind` most-recent trees per root kind.
  std::string TracesJson(size_t max_per_kind = 8) const CPDB_EXCLUDES(mu_);

 private:
  struct Ring {
    std::vector<std::vector<Span>> traces;
    size_t next = 0;
  };

  static void RingPushTrace(Ring* ring, size_t cap, std::vector<Span> spans);

  const size_t cap_;
  const size_t slow_cap_;
  mutable Mutex mu_;
  /// Recent sampled traces, keyed by root span kind ("server.GETMOD",
  /// "server.COMMIT", ...), so a burst of one verb cannot evict the
  /// other verbs' history.
  std::map<std::string, Ring> recent_ CPDB_GUARDED_BY(mu_);
  Ring slow_ CPDB_GUARDED_BY(mu_);
  uint64_t recorded_ CPDB_GUARDED_BY(mu_) = 0;
  uint64_t slow_recorded_ CPDB_GUARDED_BY(mu_) = 0;
  std::atomic<double> slow_threshold_us_{0};  ///< 0 = disabled
};

}  // namespace cpdb::obs
