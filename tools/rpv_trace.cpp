// rpv_trace — pretty-print a recorded rpv::obs event timeline.
//
//   $ rpv_trace events <file.jsonl> [--component C] [--kind K]
//               [--from SEC] [--to SEC]
//
// It reads an events.jsonl written by an observed run (Scenario::observe /
// rpv_figures --observe) and renders one line per event, so a Fig.-8-style
// handover/stall timeline can be reconstructed from the recording alone — no
// re-simulation. Components cover every layer that publishes, including the
// 3-way bonding paths (`--component sat` isolates satellite pass handovers
// and obstruction/rain-fade windows). Any other first argument prints the
// usage text and exits with code 2.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace {

using namespace rpv;

constexpr const char* kUsage =
    "usage: rpv_trace events <file.jsonl> [--component C] [--kind K] "
    "[--from SEC] [--to SEC]\n";

int run_events(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string path = argv[2];
  std::optional<obs::Component> component;
  std::optional<obs::EventKind> kind;
  std::optional<double> from_sec;
  std::optional<double> to_sec;
  auto value_of = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << flag << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--component") {
        const auto name = value_of(i, arg);
        component = obs::component_from_name(name);
        if (!component) {
          std::cerr << "unknown component '" << name << "' (one of:";
          for (int c = 0; c < obs::kComponentCount; ++c) {
            std::cerr << " "
                      << obs::component_name(static_cast<obs::Component>(c));
          }
          std::cerr << ")\n";
          return 2;
        }
      } else if (arg == "--kind") {
        const auto name = value_of(i, arg);
        kind = obs::event_kind_from_name(name);
        if (!kind) {
          std::cerr << "unknown event kind '" << name << "' (one of:";
          for (int k = 0; k < obs::kEventKindCount; ++k) {
            std::cerr << " "
                      << obs::event_kind_name(static_cast<obs::EventKind>(k));
          }
          std::cerr << ")\n";
          return 2;
        }
      } else if (arg == "--from") {
        from_sec = std::stod(value_of(i, arg));
      } else if (arg == "--to") {
        to_sec = std::stod(value_of(i, arg));
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << "\n";
      return 2;
    }
  }

  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::cerr << "error: cannot read " << path << "\n";
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::vector<obs::Event> events;
  try {
    events = obs::read_jsonl(text.str());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::size_t shown = 0;
  for (const auto& e : events) {
    if (component && e.component != *component) continue;
    if (kind && e.kind != *kind) continue;
    const double t = static_cast<double>(e.t.us()) / 1e6;
    if (from_sec && t < *from_sec) continue;
    if (to_sec && t > *to_sec) continue;
    std::cout << obs::describe(e) << "\n";
    ++shown;
  }
  std::cerr << shown << " of " << events.size() << " events\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string{argv[1]} == "events") {
    return run_events(argc, argv);
  }
  if (argc >= 2) std::cerr << "rpv_trace: unknown command '" << argv[1] << "'\n";
  std::cerr << kUsage;
  return 2;
}
