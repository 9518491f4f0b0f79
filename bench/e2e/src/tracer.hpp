#pragma once
// Spans of the traced replay: one per call the benchmark makes into a
// module (name, start, end, parent span, request id). They are recorded
// by the benchmark around the calls, not inside the program, kept in
// memory, and written out when the run ends.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"

namespace bench_e2e {

class Tracer {
 public:
  static constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();

  struct Span {
    const char* name;  ///< "<module>.<function>", a string literal
    std::uint64_t request;
    std::size_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  /// Opens a span under the innermost open one and returns its index.
  std::size_t open(const char* name, std::uint64_t request);
  void close(std::size_t span);

  /// Records a finished span (a job known from its telemetry events).
  void add(const char* name, std::uint64_t request, std::size_t parent,
           Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

  /// Each span's self time: its duration minus the part of that interval
  /// its child spans cover (children may overlap, as parallel jobs do).
  std::vector<double> self_us() const;

  /// Writes one JSON object per span; throws ftl::Error when the file
  /// cannot be written.
  void write(const std::string& path) const;

  /// Opens a span for the lifetime of the scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request)
        : tracer_(tracer), span_(tracer.open(name, request)) {}
    ~Scope() { tracer_.close(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::size_t span() const { return span_; }

   private:
    Tracer& tracer_;
    std::size_t span_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  Clock::time_point epoch_ = Clock::now();
};

}  // namespace bench_e2e
