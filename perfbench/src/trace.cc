#include "trace.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

uint32_t Tracer::Begin(const char* name, uint64_t query) {
  Span s;
  s.name = name;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.query = query;
  s.start = Now();
  spans_.push_back(s);
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(uint32_t id) {
  spans_[id - 1].end = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::TotalSeconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.end - s.start;
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                 "\"query\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 s.name, s.id, s.parent,
                 static_cast<unsigned long long>(s.query),
                 (s.start - origin) * 1e6, (s.end - origin) * 1e6,
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
