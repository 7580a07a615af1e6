#include "tracer.h"

#include <cstdio>
#include <map>

namespace perfbench {

int Tracer::Open(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::Close(int span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); pop through `span` regardless.
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    if (top == span) break;
  }
}

void Tracer::Fold(const std::string& name, int64_t ns) {
  if (open_.empty()) return;
  std::vector<Folded>& folded = spans_[static_cast<size_t>(open_.back())].folded;
  for (Folded& f : folded) {
    if (f.name == name) {
      ++f.count;
      f.total_ns += ns;
      return;
    }
  }
  folded.push_back(Folded{name, 1, ns});
}

double Tracer::TotalSeconds(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

double Tracer::FoldedSeconds(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    for (const Folded& f : s.folded) {
      if (f.name == name) ns += f.total_ns;
    }
  }
  return static_cast<double>(ns) / 1e9;
}

namespace {

/// Per-span self time in ns: duration minus direct children and folds.
std::vector<int64_t> SelfNs(const std::vector<Tracer::Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
    for (const Tracer::Folded& f : spans[i].folded) self[i] -= f.total_ns;
  }
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

}  // namespace

double Tracer::SelfSeconds(const std::string& name) const {
  std::vector<int64_t> self = SelfNs(spans_);
  int64_t ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) ns += self[i];
  }
  return static_cast<double>(ns) / 1e9;
}

double Tracer::TopLevelSeconds() const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

std::string Tracer::Table() const {
  struct Row {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::vector<std::string> order;
  std::map<std::string, Row> rows;
  std::vector<int64_t> self = SelfNs(spans_);
  auto row = [&](const std::string& name) -> Row& {
    auto [it, inserted] = rows.try_emplace(name);
    if (inserted) order.push_back(name);
    return it->second;
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    Row& r = row(spans_[i].name);
    ++r.count;
    r.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    r.self_ns += self[i];
    for (const Folded& f : spans_[i].folded) {
      Row& fr = row(f.name);
      fr.count += f.count;
      fr.total_ns += f.total_ns;
      fr.self_ns += f.total_ns;
    }
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "  %-26s %10s %12s %12s\n", "span", "count",
                "total_s", "self_s");
  out += line;
  for (const std::string& name : order) {
    const Row& r = rows[name];
    std::snprintf(line, sizeof(line), "  %-26s %10lld %12.6f %12.6f\n",
                  name.c_str(), static_cast<long long>(r.count),
                  static_cast<double>(r.total_ns) / 1e9,
                  static_cast<double>(r.self_ns) / 1e9);
    out += line;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                 i == 0 ? "" : ",\n", s.name.c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    for (size_t j = 0; j < s.folded.size(); ++j) {
      std::fprintf(f, "%s\"%s\":{\"count\":%lld,\"total_us\":%.3f}",
                   j == 0 ? "" : ",", s.folded[j].name.c_str(),
                   static_cast<long long>(s.folded[j].count),
                   static_cast<double>(s.folded[j].total_ns) / 1e3);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
