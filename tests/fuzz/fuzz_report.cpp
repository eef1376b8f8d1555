// libFuzzer driver for the session-report loader behind `rpv_figures --load`
// (rpv::pipeline::report_from_json). Build with -DRPV_FUZZ=ON (clang).
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "fuzz_targets.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  rpv::fuzz::one_report(
      std::string_view(reinterpret_cast<const char*>(data), size));
  return 0;
}
