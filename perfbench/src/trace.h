// In-memory spans for the traced run. Spans are recorded from the
// benchmark's own code around its calls into each layer, kept in memory,
// and written out once at the end: a Chrome-trace file plus a per-layer
// self-time table. A layer's self time is its span minus the time its child
// spans cover. Single-threaded: one Tracer per replaying thread.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

uint64_t NowNs();

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t parent = 0;   // index + 1 of the enclosing span; 0 for a root
  uint64_t request = 0;  // id of the request (or operation) it belongs to
};

struct LayerTime {
  uint64_t count = 0;
  double self_ns = 0;
  double total_ns = 0;
  double mean_self_us() const { return count == 0 ? 0 : self_ns / 1e3 / count; }
};

class Tracer {
 public:
  // A disabled tracer records nothing; its scopes cost two branches. The
  // untraced replay uses one to measure what tracing itself costs.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Names the span after the fact (e.g. a registry hit versus a create).
    void Rename(const char* name);

   private:
    Tracer& tracer_;
    uint32_t index_ = 0;  // index + 1 into spans_, 0 when disabled
  };

  void set_request(uint64_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

  // Self and total time per span name.
  std::map<std::string, LayerTime> Layers() const;
  // Writes `prefix`.json, Chrome trace-event JSON ("X" events; args carry
  // request and parent; at most `max_events` spans, the earliest first), and
  // `prefix`-layers.txt, the self-time table of every span.
  void WriteOut(const std::string& prefix, size_t max_events) const;

 private:
  bool enabled_;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  // stack of open span indices (+1)
};

std::string FormatLayerTable(const std::map<std::string, LayerTime>& layers);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
