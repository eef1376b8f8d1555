// Shared one-input bodies for the libFuzzer drivers in this directory and
// for the corpus-replay test (tests/test_fuzz_corpus.cpp) that keeps the
// seed corpus green under the default gcc build, where libFuzzer is not
// available.
//
// Contract for every target: arbitrary bytes either parse cleanly or throw
// std::exception — any other escape (crash, sanitizer report, non-canonical
// round trip) is a bug. A successful parse must additionally reach its
// canonical fixpoint in one dump: dump -> parse -> dump is byte-stable, the
// same invariant the campaign artifacts and the j1-vs-j8 CI smokes rely on.
#pragma once

#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "obs/recorder.hpp"
#include "pipeline/report_json.hpp"
#include "radiomap/radio_map.hpp"

namespace rpv::fuzz {

// json::parse over raw bytes.
inline void one_json(std::string_view text) {
  json::Value v;
  try {
    v = json::parse(text);
  } catch (const std::exception&) {
    return;  // malformed input must reject via exception, never crash
  }
  const std::string bytes = v.dump();
  if (json::parse(bytes).dump() != bytes) std::abort();
  // The pretty form must re-parse to the same canonical bytes.
  if (json::parse(v.dump(2)).dump() != bytes) std::abort();
}

// events.jsonl timeline loader (obs::read_jsonl).
inline void one_events(std::string_view text) {
  std::vector<obs::Event> events;
  try {
    events = obs::read_jsonl(std::string(text));
  } catch (const std::exception&) {
    return;
  }
  const std::string bytes = obs::to_jsonl(events);
  if (obs::to_jsonl(obs::read_jsonl(bytes)) != bytes) std::abort();
}

// Radio-map artifact loader (radiomap::radio_map_from_bytes).
inline void one_radiomap(std::string_view text) {
  radiomap::RadioMap map;
  try {
    map = radiomap::radio_map_from_bytes(text);
  } catch (const std::exception&) {
    return;
  }
  const std::string bytes = map.canonical_bytes();
  if (radiomap::radio_map_from_bytes(bytes).canonical_bytes() != bytes) {
    std::abort();
  }
}

// Session-report loader (pipeline::report_from_json), which `rpv_figures
// --load` runs on every stored run.
inline void one_report(std::string_view text) {
  pipeline::SessionReport report;
  try {
    report = pipeline::report_from_json(json::parse(text));
  } catch (const std::exception&) {
    return;
  }
  const std::string bytes = pipeline::report_to_json(report).dump();
  const auto again = pipeline::report_from_json(json::parse(bytes));
  if (pipeline::report_to_json(again).dump() != bytes) std::abort();
}

}  // namespace rpv::fuzz
