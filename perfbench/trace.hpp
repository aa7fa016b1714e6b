#pragma once
// In-memory span recorder for the benchmark's traced run. A span wraps one
// call the benchmark makes into a library layer (name "<layer>.<call>"),
// records start/end, the span that was open on the same thread when it
// began (its parent), a request id and an optional work amount (bytes,
// nodes, iterations) from which the layer's throughput is derived. Spans
// stay in memory and are written out as Chrome trace-event JSON at exit.
//
// A disabled tracer records nothing: Scope then costs one branch, which is
// how the untraced passes of a traced run measure the tracing overhead.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;  ///< index into the span list; -1 for a root span
  std::uint64_t request = 0;
  double work = 0;
  int thread = 0;
};

/// Per-name aggregate over recorded spans. Self time is a span's duration
/// minus the time its child spans cover (children run nested on the
/// parent's thread, so they never overlap each other).
struct SpanTotals {
  long count = 0;
  double total_ms = 0;
  double self_ms = 0;
  double work = 0;
};

class Tracer {
 public:
  void enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, double work = 0,
          std::uint64_t request = 0)
        : tracer_(tracer.enabled() ? &tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->open(name, work, request);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Sets the work amount once it is known (e.g. bytes produced).
    void set_work(double work) {
      if (tracer_ != nullptr) tracer_->set_work(index_, work);
    }

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Aggregates by span name; with `root`, only spans whose outermost
  /// ancestor (or themselves) carries that name.
  std::map<std::string, SpanTotals> totals(const char* root = nullptr) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, SpanTotals> out;
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ms[s.parent] += s.end_ms - s.start_ms;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (root != nullptr) {
        std::size_t top = i;
        while (spans_[top].parent >= 0) top = spans_[top].parent;
        if (spans_[top].name != root) continue;
      }
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total_ms += s.end_ms - s.start_ms;
      t.self_ms += s.end_ms - s.start_ms - child_ms[i];
      t.work += s.work;
    }
    return out;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_json(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
          << ",\"ts\":" << s.start_ms * 1000
          << ",\"dur\":" << (s.end_ms - s.start_ms) * 1000
          << ",\"args\":{\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"work\":" << s.work << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  double now_ms() const { return ms_between(epoch_, Clock::now()); }

  int open(const char* name, double work, std::uint64_t request) {
    const double start = now_ms();
    const std::lock_guard<std::mutex> lock(mutex_);
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, start, start, current_, request, work,
                      thread_id()});
    current_ = index;
    return index;
  }

  void close(int index) {
    const double end = now_ms();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].end_ms = end;
    current_ = spans_[index].parent;
  }

  void set_work(int index, double work) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].work = work;
  }

  static int thread_id() {
    static std::mutex ids_mutex;
    static int next = 0;
    thread_local int id = [] {
      const std::lock_guard<std::mutex> lock(ids_mutex);
      return next++;
    }();
    return id;
  }

  std::atomic<bool> enabled_{false};  // toggled per pass, read by clients
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  // Innermost open span of the calling thread (one tracer per process).
  static inline thread_local int current_ = -1;
};

}  // namespace perfbench
