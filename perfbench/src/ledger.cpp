#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int SpanRecorder::open(std::string name, int iteration, bool traced) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.iteration = iteration;
  s.traced = traced;
  s.start_s = seconds_since<Clock>(origin_);
  s.cpu_start = CpuClock::now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

double SpanRecorder::close(int id) {
  auto& s = spans_.at(static_cast<std::size_t>(id));
  s.end_s = seconds_since<Clock>(origin_);
  s.cpu_s = seconds_since(s.cpu_start);
  // Spans close innermost first; tolerate an out-of-order close by removing
  // exactly this id.
  const auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
  return s.cpu_s;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out{path, std::ios::trunc};
  if (!out) return false;
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"iteration\":%d,"
                  "\"traced\":%s,\"start_s\":%.9f,\"end_s\":%.9f,\"cpu_s\":%.9f}\n",
                  i, s.parent, s.name.c_str(), s.iteration,
                  s.traced ? "true" : "false", s.start_s, s.end_s, s.cpu_s);
    out << buf;
  }
  return static_cast<bool>(out);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
