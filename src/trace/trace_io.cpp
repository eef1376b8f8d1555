#include "trace/trace_io.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace rpv::trace {
namespace {

bool write_lines(const std::string& path, const std::string& header,
                 const std::vector<std::string>& lines) {
  std::ofstream out{path};
  if (!out) return false;
  out << header << "\n";
  for (const auto& l : lines) out << l << "\n";
  return static_cast<bool>(out);
}

std::string row(double a, double b) {
  std::ostringstream os;
  os << a << "," << b;
  return os.str();
}

}  // namespace

bool write_time_series_csv(const std::string& path,
                           const metrics::TimeSeries& series,
                           const std::string& value_name) {
  std::vector<std::string> lines;
  lines.reserve(series.count());
  for (const auto& s : series.samples()) lines.push_back(row(s.t.sec(), s.value));
  return write_lines(path, "t_sec," + value_name, lines);
}

bool write_samples_csv(const std::string& path, const std::vector<double>& samples,
                       const std::string& value_name) {
  std::vector<std::string> lines;
  lines.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    lines.push_back(row(static_cast<double>(i), samples[i]));
  }
  return write_lines(path, "index," + value_name, lines);
}

std::optional<metrics::TimeSeries> load_time_series_csv(const std::string& path) {
  std::ifstream in{path};
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;  // header
  metrics::TimeSeries out;
  while (std::getline(in, line)) {
    const auto comma = line.find(',');
    if (comma == std::string::npos) return std::nullopt;
    try {
      const double t = std::stod(line.substr(0, comma));
      const double v = std::stod(line.substr(comma + 1));
      out.add(sim::TimePoint::origin() + sim::Duration::seconds(t), v);
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  return out;
}

std::vector<std::string> export_session(const pipeline::SessionReport& report,
                                        const std::string& dir,
                                        const std::string& prefix) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return {};
  std::vector<std::string> written;
  auto path = [&](const std::string& name) { return dir + "/" + prefix + "_" + name; };
  auto note = [&](const std::string& p, bool ok) {
    if (ok) written.push_back(p);
  };

  note(path("owd.csv"),
       write_time_series_csv(path("owd.csv"), report.owd_trace_ms, "owd_ms"));
  note(path("playback_latency.csv"),
       write_time_series_csv(path("playback_latency.csv"),
                             report.playback_latency_trace_ms, "latency_ms"));
  note(path("target_bitrate.csv"),
       write_time_series_csv(path("target_bitrate.csv"),
                             report.target_bitrate_trace_bps, "bitrate_bps"));
  note(path("capacity.csv"),
       write_time_series_csv(path("capacity.csv"), report.capacity_trace_mbps,
                             "capacity_mbps"));
  note(path("goodput.csv"),
       write_samples_csv(path("goodput.csv"), report.goodput_mbps_windows,
                         "goodput_mbps"));
  note(path("fps.csv"),
       write_samples_csv(path("fps.csv"), report.fps_windows, "fps"));
  note(path("ssim.csv"),
       write_samples_csv(path("ssim.csv"), report.ssim_samples, "ssim"));

  {
    std::vector<std::string> lines;
    for (const auto& e : report.handovers.events()) {
      std::ostringstream os;
      os << e.start.sec() << "," << e.het.ms() << "," << e.source_cell << ","
         << e.target_cell << "," << (e.ping_pong ? 1 : 0);
      lines.push_back(os.str());
    }
    note(path("handovers.csv"),
         write_lines(path("handovers.csv"),
                     "t_sec,het_ms,source_cell,target_cell,ping_pong", lines));
  }
  {
    std::ostringstream os;
    os << report.cc_name << "," << report.environment << ","
       << report.duration.sec() << "," << report.avg_goodput_mbps << ","
       << report.frames_encoded << "," << report.frames_played << ","
       << report.stall_duration_ms.size() << "," << report.per << ","
       << report.handovers.frequency(report.duration) << ","
       << report.cells_seen;
    note(path("summary.csv"),
         write_lines(path("summary.csv"),
                     "cc,environment,duration_s,avg_goodput_mbps,frames_encoded,"
                     "frames_played,stalls,per,ho_per_s,cells_seen",
                     {os.str()}));
  }
  return written;
}

}  // namespace rpv::trace
