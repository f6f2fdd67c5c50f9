// Measurement helpers for herc-bench: exact percentiles over full sample
// sets, and the span recorder of traced runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// A failed op misses every latency limit: it enters the sample set as +inf.
inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Exact percentiles of one sample set (nearest rank on the sorted samples).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// The q-quantile, or nullopt unless at least ten samples lie beyond it
  /// (the highest percentile a sample set of this size supports).
  [[nodiscard]] std::optional<double> percentile(double q) {
    const std::size_t n = values_.size();
    if (n == 0) return std::nullopt;
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    if (n - (idx + 1) < 10) return std::nullopt;
    sort();
    return values_[idx];
  }
  /// The median (nearest rank), whatever the sample count; 0 when empty.
  [[nodiscard]] double median() {
    if (values_.empty()) return 0;
    sort();
    return values_[(values_.size() - 1) / 2];
  }
  [[nodiscard]] double max() {
    sort();
    return values_.empty() ? 0 : values_.back();
  }

 private:
  /// Sorts once per batch of additions (samples are only ever added).
  void sort() {
    if (sorted_n_ != values_.size()) {
      std::sort(values_.begin(), values_.end());
      sorted_n_ = values_.size();
    }
  }
  std::vector<double> values_;
  std::size_t sorted_n_ = 0;  ///< size at the last sort
};

/// One traced interval.  Spans of one request share `request`; `parent`
/// indexes the enclosing span on the same thread (-1 for a root).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// Per-thread span buffer.  Disabled tracers record nothing and cost one
/// branch per boundary.  Spans stay in memory until the run writes them out.
class Tracer {
 public:
  static constexpr std::size_t kCapacity = 1u << 20;

  void enable(bool on) { enabled_ = on; }

  /// Opens a span; returns its handle (or -1 when not recording).
  std::int32_t begin(const char* name, std::uint64_t request) {
    if (!enabled_) return -1;
    if (spans_.size() >= kCapacity) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, now_ns(), 0, open_, request});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }
  void end(std::int32_t handle) {
    if (handle < 0) return;
    Span& s = spans_[static_cast<std::size_t>(handle)];
    s.end_ns = now_ns();
    open_ = s.parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint64_t dropped_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(&tracer), handle_(tracer.begin(name, request)) {}
  ~Scope() { tracer_->end(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t handle_;
};

}  // namespace perfbench
