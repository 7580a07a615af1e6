#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host-time span recorder for the traced run. Spans are opened around the
/// calls the benchmark makes into each layer, kept in memory, and written out
/// when the run ends. Nesting follows the call structure: a span opened while
/// another is open becomes its child. Very hot calls (one per loaded
/// statement) are folded into their parent as a total and a count instead of
/// one record each.
///
/// A null Tracer* means "untraced": every helper below is then a no-op, so the
/// untraced run executes the same code with no clock reads.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Folded {
    std::string name;
    int64_t count = 0;
    int64_t total_ns = 0;
  };
  struct Span {
    std::string name;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::vector<Folded> folded;
  };

  Tracer() : origin_(Clock::now()) {}

  int Open(const std::string& name);
  void Close(int span);
  /// Adds `ns` to the folded child `name` of the innermost open span.
  void Fold(const std::string& name, int64_t ns);

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  /// Sum of the durations (s) of spans named `name`.
  double TotalSeconds(const std::string& name) const;
  /// Folded totals (s) named `name` across all spans.
  double FoldedSeconds(const std::string& name) const;
  /// Sum over spans named `name` of duration minus the time their direct
  /// children (spans and folded calls) cover.
  double SelfSeconds(const std::string& name) const;
  /// Sum of the durations of top-level spans.
  double TopLevelSeconds() const;

  /// Per-name table: count, total, self — in first-seen order.
  std::string Table() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds); folded
  /// calls appear as args of their parent. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on an optional tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer == nullptr ? -1 : tracer->Open(name)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Runs `fn` and, when traced, folds its duration into `name`.
template <typename Fn>
auto Folding(Tracer* tracer, const std::string& name, Fn&& fn) {
  if (tracer == nullptr) return fn();
  int64_t start = tracer->NowNs();
  auto result = fn();
  tracer->Fold(name, tracer->NowNs() - start);
  return result;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
