// Spans recorded by the traced run. The benchmark's own code opens a span
// around each call into a layer's public functions; nothing inside the
// program is instrumented. Spans live in memory and are written out when
// the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< a string literal
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = no parent
  uint64_t query = 0;   ///< query id; 0 = not part of a query
  double start = 0.0;
  double end = 0.0;
};

/// Single-threaded span recorder: the parent of a new span is the
/// innermost span still open.
class Tracer {
 public:
  uint32_t Begin(const char* name, uint64_t query);
  void End(uint32_t id);

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t query)
        : tracer_(tracer), id_(tracer ? tracer->Begin(name, query) : 0) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    uint32_t id_;
  };

  /// Summed inclusive duration per span name, in seconds.
  std::map<std::string, double> TotalSeconds() const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON array; returns false on an IO error.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;  ///< spans_[id - 1]
  std::vector<uint32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
