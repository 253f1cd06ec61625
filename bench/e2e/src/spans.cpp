#include "spans.hpp"

#include <algorithm>
#include <unordered_map>

#include "spc/support/timing.hpp"

namespace e2e {

namespace {

// The innermost open ScopedSpan on this thread (0 = none).
thread_local std::uint64_t t_current = 0;

std::atomic<std::uint64_t> g_next_log{1};

}  // namespace

SpanLog::SpanLog(bool enabled) : enabled_(enabled), serial_(g_next_log.fetch_add(1)) {}

SpanLog::Buffer& SpanLog::local() {
  // One buffer per (thread, log); the cache remembers which log it
  // belongs to so a second log in the same process gets its own.
  thread_local std::uint64_t owner = 0;
  thread_local Buffer* buf = nullptr;
  if (owner != serial_) {
    std::lock_guard<std::mutex> lk(mu_);
    bufs_.push_back(std::make_unique<Buffer>());
    bufs_.back()->thread = static_cast<std::uint32_t>(bufs_.size());
    buf = bufs_.back().get();
    owner = serial_;
  }
  return *buf;
}

void SpanLog::record(Span s) {
  if (!enabled_) {
    return;
  }
  Buffer& b = local();
  s.thread = b.thread;
  b.spans.push_back(std::move(s));
}

std::vector<Span> SpanLog::spans() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& b : bufs_) {
      out.insert(out.end(), b->spans.begin(), b->spans.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return out;
}

std::map<std::string, double> SpanLog::layer_self_s() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent != 0) {
      children[s.parent].push_back(&s);
    }
  }
  std::map<std::string, double> out;
  for (const Span& s : all) {
    // Children are already in start order; merge their clipped
    // intervals so concurrent children are not double-counted.
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_ns;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::uint64_t lo = std::max(c->start_ns, reach);
        const std::uint64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
    }
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
  }
  return out;
}

spc::obs::Json SpanLog::chrome_trace(const spc::obs::Json& extra) const {
  using spc::obs::Json;
  const std::vector<Span> all = spans();
  const std::uint64_t origin = all.empty() ? 0 : all.front().start_ns;
  Json events = Json::array();
  for (const Span& s : all) {
    events.push(Json::object()
                    .set("name", s.name)
                    .set("ph", "X")
                    .set("pid", 1)
                    .set("tid", static_cast<std::uint64_t>(s.thread))
                    .set("ts", static_cast<double>(s.start_ns - origin) * 1e-3)
                    .set("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
                    .set("args", Json::object()
                                     .set("id", s.id)
                                     .set("parent", s.parent)
                                     .set("req", s.req)));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  for (const auto& [k, v] : extra.items()) {
    doc.set(k, v);
  }
  return doc;
}

ScopedSpan::ScopedSpan(SpanLog& log, std::string_view name,
                       std::string_view detail, std::uint64_t req,
                       std::uint64_t parent)
    : log_(log) {
  if (!log_.enabled()) {
    return;
  }
  span_.name = name;
  if (!detail.empty()) {
    span_.name.append(".").append(detail);
  }
  span_.id = log_.next_id();
  span_.parent = parent == kInherit ? t_current : parent;
  span_.req = req;
  saved_current_ = t_current;
  t_current = span_.id;
  span_.start_ns = spc::now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!log_.enabled()) {
    return;
  }
  span_.end_ns = spc::now_ns();
  t_current = saved_current_;
  log_.record(std::move(span_));
}

}  // namespace e2e
