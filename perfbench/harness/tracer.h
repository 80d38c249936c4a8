// In-memory span recorder for the benchmark harness.
//
// A span is a named interval around one call into a layer of the
// library, recorded from outside: the harness wraps the objects the
// explorer and the service hand back and times each call. Every thread
// owns a buffer (no locking on the hot path) and a stack of open spans,
// so a span's self time is its duration minus the time its child spans
// cover. Per-name totals are always kept; raw spans are kept up to a cap
// per thread and written out once, at exit (write_json).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  /// Raw spans kept per thread; totals keep counting past the cap.
  static constexpr std::size_t kRawCap = 100000;

  struct Raw {
    std::uint32_t name;
    std::uint32_t parent;  ///< Index into the same thread's raw spans.
    std::uint64_t request;  ///< Shared by the spans of one request; 0 = none.
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  /// The process-wide recorder; disabled until enable().
  static Tracer& get();

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }

  /// Stable id for a span name (call once per name, outside hot loops).
  std::uint32_t intern(const std::string& name);

  /// Opens a span on the calling thread; close() must follow on the
  /// same thread, innermost first.
  void open(std::uint32_t name, std::uint64_t request);
  void close();

  /// Records an already-measured interval (e.g. a wait that started on
  /// one thread and ended on another) as a leaf span of the caller.
  void record(std::uint32_t name, std::uint64_t request, std::int64_t start_ns,
              std::int64_t end_ns);

  /// Totals per span name across every thread.
  [[nodiscard]] std::map<std::string, SpanTotals> totals();

  /// Forgets every recorded span (names stay interned).
  void reset();

  /// Writes the totals and the kept raw spans as one JSON document.
  bool write_json(const std::string& path);

 private:
  struct Frame {
    std::uint32_t name;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint32_t raw_index;
  };
  struct Thread {
    std::vector<Frame> stack;
    std::vector<Raw> raw;
    std::vector<SpanTotals> totals;  ///< Indexed by name id.
  };

  Thread& local();
  void finish(Thread& t, const Frame& f, std::int64_t end_ns);

  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

/// RAII span; free when tracing is off.
class Span {
 public:
  Span(std::uint32_t name, std::uint64_t request = 0)
      : on_(Tracer::get().on()) {
    if (on_) Tracer::get().open(name, request);
  }
  ~Span() {
    if (on_) Tracer::get().close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

}  // namespace perfbench
