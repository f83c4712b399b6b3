#include "obs/trace.h"

#include <cstdio>

#include "obs/metrics.h"

namespace cpdb::obs {

namespace {

/// JSON string escape for span kinds and details: the payloads are paths
/// and verb names, so dropping the rare byte that would break the JSON
/// string beats a full escaper.
void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      continue;
    }
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

uint64_t SpanCollector::Open(const std::string& kind, uint64_t parent,
                             std::string detail) {
  if (!active()) return 0;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.trace_id = ctx_.trace_id;
  s.span_id = next_id_++;
  s.parent_span_id = parent;
  s.kind = kind;
  s.detail = std::move(detail);
  s.start_us = NowMicros();
  spans_.push_back(std::move(s));
  return spans_.back().span_id;
}

void SpanCollector::Close(uint64_t id) {
  Span* s = Find(id);
  if (s != nullptr) s->dur_us = NowMicros() - s->start_us;
}

void SpanCollector::CloseWithCost(uint64_t id, uint64_t rows,
                                  uint64_t round_trips, double cost_us) {
  Span* s = Find(id);
  if (s == nullptr) return;
  s->dur_us = NowMicros() - s->start_us;
  s->rows = rows;
  s->round_trips = round_trips;
  s->cost_us = cost_us;
}

uint64_t SpanCollector::AppendTimed(const std::string& kind, uint64_t parent,
                                    double start_us, double dur_us) {
  if (!active()) return 0;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.trace_id = ctx_.trace_id;
  s.span_id = next_id_++;
  s.parent_span_id = parent;
  s.kind = kind;
  s.start_us = start_us;
  s.dur_us = dur_us;
  spans_.push_back(std::move(s));
  return spans_.back().span_id;
}

Span* SpanCollector::Find(uint64_t id) {
  if (id == 0) return nullptr;
  for (Span& s : spans_) {
    if (s.span_id == id) return &s;
  }
  return nullptr;
}

void SpanStore::RingPushTrace(Ring* ring, std::vector<Span> spans) {
  if (ring->traces.size() < kRingCapacity) {
    ring->traces.push_back(std::move(spans));
  } else {
    ring->traces[ring->next] = std::move(spans);
  }
  ring->next = (ring->next + 1) % kRingCapacity;
}

bool SpanStore::Record(std::vector<Span> spans, bool sampled) {
  if (spans.empty()) return false;
  const double threshold = SlowThresholdUs();
  const bool slow = threshold > 0 && spans.front().dur_us >= threshold;
  if (!sampled && !slow) return false;
  std::string line;
  if (slow) line = "cpdb slow-request: " + TreeJson(spans) + "\n";
  {
    MutexLock l(mu_);
    if (slow) {
      ++slow_recorded_;
      RingPushTrace(&slow_, spans);
    }
    if (sampled) {
      ++recorded_;
      // Pick the ring BEFORE handing the spans over: the map-subscript
      // argument and the move are indeterminately sequenced otherwise.
      Ring* ring = &recent_[spans.front().kind];
      RingPushTrace(ring, std::move(spans));
    }
  }
  // Rendered and written outside the lock, rate-unlimited: a server
  // where every request is slow SHOULD be loud.
  if (slow) std::fputs(line.c_str(), stderr);
  return slow;
}

std::string SpanStore::SpanJson(const Span& span) {
  // Ids and counters render via std::to_string, NOT AppendJsonNumber: a
  // client-minted trace/span id uses the full 63-bit space and must not
  // be squeezed through a double's 53-bit mantissa.
  std::string out = "{\"span_id\":" + std::to_string(span.span_id);
  out.append(",\"parent_span_id\":" + std::to_string(span.parent_span_id));
  out.append(",\"kind\":");
  AppendJsonString(&out, span.kind);
  if (!span.detail.empty()) {
    out.append(",\"detail\":");
    AppendJsonString(&out, span.detail);
  }
  out.append(",\"start_us\":");
  AppendJsonNumber(&out, span.start_us);
  out.append(",\"dur_us\":");
  AppendJsonNumber(&out, span.dur_us);
  out.append(",\"rows\":" + std::to_string(span.rows));
  out.append(",\"round_trips\":" + std::to_string(span.round_trips));
  out.append(",\"cost_us\":");
  AppendJsonNumber(&out, span.cost_us);
  if (span.tid >= 0) {
    out.append(",\"tid\":" + std::to_string(span.tid));
  }
  out.push_back('}');
  return out;
}

namespace {

void AppendSpanTree(std::string* out, const std::vector<Span>& spans,
                    size_t index,
                    const std::vector<std::vector<size_t>>& children) {
  const Span& s = spans[index];
  std::string flat = SpanStore::SpanJson(s);
  flat.pop_back();  // re-open the object to nest "children"
  out->append(flat);
  out->append(",\"children\":[");
  for (size_t i = 0; i < children[index].size(); ++i) {
    if (i) out->push_back(',');
    AppendSpanTree(out, spans, children[index][i], children);
  }
  out->append("]}");
}

}  // namespace

std::string SpanStore::TreeJson(const std::vector<Span>& spans) {
  if (spans.empty()) return "{}";
  // Index spans by id, then attach each non-root span to its parent —
  // or to the root when the parent is unknown (an overflow-dropped
  // parent must not make its surviving children vanish from the render).
  std::map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].span_id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 1; i < spans.size(); ++i) {
    auto it = by_id.find(spans[i].parent_span_id);
    children[it != by_id.end() ? it->second : 0].push_back(i);
  }
  std::string out =
      "{\"trace_id\":" + std::to_string(spans.front().trace_id);
  out.append(",\"spans\":" + std::to_string(spans.size()));
  out.append(",\"root\":");
  AppendSpanTree(&out, spans, 0, children);
  out.push_back('}');
  return out;
}

std::string SpanStore::TracesJson() const {
  double threshold;
  uint64_t total, slow_total;
  std::vector<std::vector<Span>> traces;
  std::vector<std::vector<Span>> slow;
  // A ring's trees, newest first: the newest sits just behind `next`.
  auto newest_first = [](const Ring& ring,
                         std::vector<std::vector<Span>>* out) {
    const size_t n = ring.traces.size();
    for (size_t i = 0; i < n; ++i) {
      out->push_back(ring.traces[(ring.next + n - 1 - i) % n]);
    }
  };
  {
    MutexLock l(mu_);
    threshold = SlowThresholdUs();
    total = recorded_;
    slow_total = slow_recorded_;
    for (const auto& [kind, ring] : recent_) {
      (void)kind;
      newest_first(ring, &traces);
    }
    newest_first(slow_, &slow);
  }
  std::string out = "{\"slow_threshold_us\":";
  AppendJsonNumber(&out, threshold);
  out.append(",\"recorded\":");
  AppendJsonNumber(&out, static_cast<double>(total));
  out.append(",\"slow_recorded\":");
  AppendJsonNumber(&out, static_cast<double>(slow_total));
  out.append(",\"traces\":[");
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i) out.push_back(',');
    out.append(TreeJson(traces[i]));
  }
  out.append("],\"slow\":[");
  for (size_t i = 0; i < slow.size(); ++i) {
    if (i) out.push_back(',');
    out.append(TreeJson(slow[i]));
  }
  out.append("]}");
  return out;
}

}  // namespace cpdb::obs
