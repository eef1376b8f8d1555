// Replays the libFuzzer seed corpus (tests/fuzz/corpus/) through the shared
// one-input bodies under the default gcc build, where libFuzzer itself is
// unavailable. This keeps the corpus green between fuzz CI runs: every seed
// must parse-or-throw without crashing, and every valid seed must hit its
// canonical dump fixpoint (the bodies abort on a violation, which gtest
// reports as a crash). The clang fuzz job (-DRPV_FUZZ=ON) mutates from the
// same directories; see docs/TESTING.md.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzz_targets.hpp"
#include "pipeline/report_json.hpp"
#include "radiomap/radio_map.hpp"

#ifndef RPV_FUZZ_CORPUS_DIR
#error "RPV_FUZZ_CORPUS_DIR must point at tests/fuzz/corpus"
#endif

namespace rpv {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_files(const std::string& target) {
  const fs::path dir = fs::path(RPV_FUZZ_CORPUS_DIR) / target;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

TEST(FuzzCorpus, JsonSeedsReplayClean) {
  const auto files = corpus_files("json");
  ASSERT_GE(files.size(), 5u);
  for (const auto& p : files) {
    SCOPED_TRACE(p.filename().string());
    fuzz::one_json(slurp(p));
  }
}

TEST(FuzzCorpus, EventsSeedsReplayClean) {
  const auto files = corpus_files("events");
  ASSERT_GE(files.size(), 3u);
  for (const auto& p : files) {
    SCOPED_TRACE(p.filename().string());
    fuzz::one_events(slurp(p));
  }
}

TEST(FuzzCorpus, RadioMapSeedsReplayClean) {
  const auto files = corpus_files("radiomap");
  ASSERT_GE(files.size(), 2u);
  for (const auto& p : files) {
    SCOPED_TRACE(p.filename().string());
    fuzz::one_radiomap(slurp(p));
  }
}

TEST(FuzzCorpus, RadioMapSeedsAreValidMaps) {
  // The radiomap seeds must stay *valid* inputs (not just non-crashing), so
  // the fuzzer starts from the accepted grammar rather than rediscovering it.
  for (const auto& p : corpus_files("radiomap")) {
    SCOPED_TRACE(p.filename().string());
    EXPECT_NO_THROW((void)radiomap::radio_map_from_bytes(slurp(p)));
  }
}

TEST(FuzzCorpus, ReportSeedsReplayClean) {
  const auto files = corpus_files("report");
  ASSERT_GE(files.size(), 2u);
  for (const auto& p : files) {
    SCOPED_TRACE(p.filename().string());
    fuzz::one_report(slurp(p));
  }
}

TEST(FuzzCorpus, ReportSeedsAreValidReports) {
  // Like the radiomap seeds: start the fuzzer from accepted documents.
  for (const auto& p : corpus_files("report")) {
    SCOPED_TRACE(p.filename().string());
    EXPECT_NO_THROW((void)pipeline::report_from_json(json::parse(slurp(p))));
  }
}

}  // namespace
}  // namespace rpv
