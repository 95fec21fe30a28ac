#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "perfbench.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::pair<int, double> tail_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (int q : {99, 95, 90, 75, 50}) {
    if (n * (100 - q) / 100.0 < 10.0) continue;
    // Nearest-rank percentile: the smallest sample with q% at or below it.
    const auto rank = static_cast<std::size_t>(q * n / 100.0 + 0.999999);
    return {q, v[std::max<std::size_t>(rank, 1) - 1]};
  }
  return {0, 0.0};
}

SpanLog::SpanLog() : epoch_s_(now_s()) {}

int SpanLog::open(std::string name, int op) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.op = op;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.start_s = now_s() - epoch_s_;
  spans_.push_back(std::move(rec));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = now_s() - epoch_s_;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] +=
        spans_[i].end_s - spans_[i].start_s - child_time[i];
  return self;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"spans\": [\n";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\", \"op\": %d, \"parent\": %d, \"start_s\": %.9f, "
                  "\"end_s\": %.9f}",
                  s.op, s.parent, s.start_s, s.end_s);
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name << buf
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
