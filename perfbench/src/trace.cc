#include "perfbench/src/trace.h"

#include <time.h>

#include <cstdio>

namespace perfbench {

uint64_t NowNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + static_cast<uint64_t>(ts.tv_nsec);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.enabled_) {
    return;
  }
  Span span;
  span.name = name;
  span.parent = tracer_.open_.empty() ? 0 : tracer_.open_.back();
  span.request = tracer_.request_;
  tracer_.spans_.push_back(span);
  index_ = static_cast<uint32_t>(tracer_.spans_.size());
  tracer_.open_.push_back(index_);
  tracer_.spans_.back().start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (index_ == 0) {
    return;
  }
  tracer_.spans_[index_ - 1].end_ns = NowNs();
  tracer_.open_.pop_back();
}

void Tracer::Scope::Rename(const char* name) {
  if (index_ != 0) {
    tracer_.spans_[index_ - 1].name = name;
  }
}

std::map<std::string, LayerTime> Tracer::Layers() const {
  // Children of one span never overlap (one thread), so the time they cover
  // is the sum of their durations.
  std::vector<double> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      child_ns[span.parent - 1] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double total = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    LayerTime& layer = layers[spans_[i].name];
    ++layer.count;
    layer.total_ns += total;
    layer.self_ns += total - child_ns[i];
  }
  return layers;
}

void Tracer::WriteOut(const std::string& prefix, size_t max_events) const {
  std::FILE* table = std::fopen((prefix + "-layers.txt").c_str(), "w");
  if (table != nullptr) {
    std::fputs(FormatLayerTable(Layers()).c_str(), table);
    std::fclose(table);
  }
  std::FILE* out = std::fopen((prefix + ".json").c_str(), "w");
  if (out == nullptr) {
    return;
  }
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"traceEvents\":[");
  const size_t n = spans_.size() < max_events ? spans_.size() : max_events;
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"request\":%llu,\"span\":%zu,\"parent\":%u}}",
                 i == 0 ? "" : ",", span.name,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.request), i + 1, span.parent);
  }
  std::fprintf(out, "\n],\"displayTimeUnit\":\"ns\"}\n");
  std::fclose(out);
}

std::string FormatLayerTable(const std::map<std::string, LayerTime>& layers) {
  std::string out = "span                              count    mean_self_us   mean_total_us\n";
  for (const auto& [name, layer] : layers) {
    char row[160];
    std::snprintf(row, sizeof(row), "%-32s %7llu %15.3f %15.3f\n", name.c_str(),
                  static_cast<unsigned long long>(layer.count), layer.mean_self_us(),
                  layer.count == 0 ? 0 : layer.total_ns / 1e3 / layer.count);
    out += row;
  }
  return out;
}

}  // namespace perfbench
