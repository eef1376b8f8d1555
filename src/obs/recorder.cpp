#include "obs/recorder.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/event_json.hpp"
#include "sim/validate.hpp"

namespace rpv::obs {

RingBufferRecorder::RingBufferRecorder(std::size_t capacity, std::uint64_t mask)
    : capacity_(capacity), mask_(mask) {
  rpv::validate(capacity_ > 0, "RingBufferRecorder capacity must be > 0");
  ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);
}

void RingBufferRecorder::on_event(const Event& e) {
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
    return;
  }
  // Full: overwrite the oldest slot.
  ring_[head_] = e;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<Event> RingBufferRecorder::snapshot() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::string to_jsonl(const std::vector<Event>& events) {
  std::string out;
  for (const Event& e : events) {
    event_to_json(e).dump_to(out);
    out += '\n';
  }
  return out;
}

bool write_jsonl(const std::string& path, const std::vector<Event>& events) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const std::string text = to_jsonl(events);
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  return f.good();
}

std::vector<Event> read_jsonl(const std::string& text) {
  std::vector<Event> out;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    ++line_no;
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    try {
      out.push_back(event_from_json(json::parse(line)));
    } catch (const std::exception& e) {
      throw std::runtime_error("events.jsonl line " + std::to_string(line_no) +
                               ": " + e.what());
    }
  }
  return out;
}

}  // namespace rpv::obs
