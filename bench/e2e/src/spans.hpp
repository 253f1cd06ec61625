// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into each layer's public functions; the library itself is untouched.
// Each span carries a name ("<layer>.<call>"), an id, its parent's id,
// a request id (0 outside the serving phases), the recording thread,
// and monotonic start/end times. Spans stay in per-thread buffers until
// the run ends, then are written as one Chrome trace_event document
// (chrome://tracing, ui.perfetto.dev).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "spc/obs/json.hpp"

namespace e2e {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t req = 0;     ///< request id; 0 = not request-scoped
  std::uint32_t thread = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanLog {
 public:
  /// A disabled log records nothing; its spans cost one branch.
  explicit SpanLog(bool enabled);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Allocates a span id (0 when disabled).
  std::uint64_t next_id() {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }

  /// Appends a finished span to the calling thread's buffer.
  void record(Span s);

  /// Every recorded span, ordered by start time. Call once the
  /// recording threads have finished (buffers are appended unlocked).
  std::vector<Span> spans() const;

  /// Self time summed per layer (the name up to its first '.'): each
  /// span's duration minus the part of its interval covered by its
  /// children, in seconds.
  std::map<std::string, double> layer_self_s() const;

  /// Chrome trace_event document; `extra` members are appended at the
  /// top level beside "traceEvents".
  spc::obs::Json chrome_trace(const spc::obs::Json& extra) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  const bool enabled_;
  /// Process-unique, never reused: keys the per-thread buffer cache, so
  /// a log built where a destroyed one lived cannot find its buffers.
  const std::uint64_t serial_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;  ///< guards bufs_ (registration and reads)
  std::vector<std::unique_ptr<Buffer>> bufs_;
};

/// RAII span named "<name>" or "<name>.<detail>": opens on construction,
/// records on destruction. The parent defaults to the innermost open
/// ScopedSpan on this thread; pass one explicitly for work handed to
/// another thread. Nothing is allocated when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name, std::string_view detail = {},
             std::uint64_t req = 0, std::uint64_t parent = kInherit);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

 private:
  SpanLog& log_;
  Span span_;
  std::uint64_t saved_current_ = 0;
};

}  // namespace e2e
