// The repository benchmark. One process runs one workload:
//
//   perfbench --workload paper_grid|codec_grid|query_mix --seed N
//             --seconds S --trace 0|1 [--tiny] [--corrupt store|answer]
//
// It prints the machine descriptor, one human-readable line per metric,
// and as its last line one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics of a
// dark run; --trace 1 the per-layer metrics of a traced run. See
// perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "ulpdream/util/cli.hpp"

namespace {

void print_result(const perfbench::RunResult& r, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    const ulpdream::util::Cli cli(argc, argv);
    opt.workload = cli.get("workload", "");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    opt.seconds = cli.get_double("seconds", 10.0);
    opt.trace = cli.get_int("trace", 0) != 0;
    opt.tiny = cli.get_bool("tiny", false);
    opt.corrupt = cli.get("corrupt", "");
    std::filesystem::create_directories(opt.work_dir);

    perfbench::RunResult result;
    if (opt.workload == "paper_grid") {
      result = perfbench::run_paper_grid(opt);
    } else if (opt.workload == "codec_grid") {
      result = perfbench::run_codec_grid(opt);
    } else if (opt.workload == "query_mix") {
      result = perfbench::run_query_mix(opt);
    } else {
      std::fprintf(stderr,
                   "perfbench: --workload must be paper_grid, codec_grid or "
                   "query_mix (got '%s')\n",
                   opt.workload.c_str());
      return 2;
    }

    bool finite = true;
    std::printf("# machine %s\n", perfbench::machine_json().c_str());
    std::printf("# workload %s seed %llu seconds %g trace %d\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    for (const std::string& note : result.notes) {
      std::printf("# %s\n", note.c_str());
    }
    for (const perfbench::Metric& m : result.metrics) {
      std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
      finite = finite && std::isfinite(m.value);
    }
    std::printf("# error_frac %.6g (%llu failed of %llu attempted)\n",
                double(result.failed) / double(std::max<std::uint64_t>(
                                            1, result.attempted)),
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
    print_result(result, result.failed == 0 && result.attempted > 0 && finite);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
