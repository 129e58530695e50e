#pragma once
// Shared plumbing of the repository benchmark: command-line options, the
// metric list every run prints, order statistics, store digests and the
// machine descriptor. See perfbench/README.md for the workloads and the
// metric definitions.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizing: the smallest grids and a short timed window.
  bool tiny = false;
  /// Self-test fault injection: "store" flips a bit in the digested text
  /// of every timed grid store, "answer" one in every query_mix answer;
  /// each must then be counted as a failed operation.
  std::string corrupt;
  /// Directory for sockets, caches and span dumps, relative to the
  /// checkout root so the daemon's Unix socket path stays short.
  std::string work_dir = ".bench_build/work";
};

/// One printed metric; unit "count" marks a deterministic count, which
/// must repeat exactly for a seed.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the operation tally and the
/// metrics of the requested kind (end-to-end when dark, per-layer when
/// traced), plus free-form lines for the human-readable report.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void check(bool ok, std::uint64_t n = 1) {
    attempted += n;
    if (!ok) failed += n;
  }
};

RunResult run_paper_grid(const Options& opt);
RunResult run_codec_grid(const Options& opt);
RunResult run_query_mix(const Options& opt);

// --- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);
[[nodiscard]] double mean(const std::vector<double>& values);

// --- time, memory, identity -----------------------------------------------

/// Seconds on the steady clock since an arbitrary origin.
[[nodiscard]] double now_s();
/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();
/// Workload seed -> sub-seed for stream `stream` (splitmix64-mixed).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);
/// FNV-1a of the store's text serialization (ResultStore::save); with
/// `corrupt`, of that text with one bit flipped (self-test injection).
[[nodiscard]] std::uint64_t store_digest(
    const ulpdream::campaign::ResultStore& store, bool corrupt = false);
[[nodiscard]] std::string hex64(std::uint64_t v);
/// True when both stores hold the same samples, cell for cell (spec names
/// may differ — a traced grid runs wrapper components).
[[nodiscard]] bool same_samples(const ulpdream::campaign::ResultStore& a,
                                const ulpdream::campaign::ResultStore& b);

/// One-line JSON machine descriptor: nproc, CPU model, compiler, build
/// type and the active SIMD tier.
[[nodiscard]] std::string machine_json();

// --- telemetry helpers ----------------------------------------------------

using Snapshot = ulpdream::util::telemetry::MetricsSnapshot;
[[nodiscard]] std::uint64_t counter(const Snapshot& s, const std::string& k);
/// Exact sum / count of a histogram (0 when absent).
[[nodiscard]] std::uint64_t hist_sum(const Snapshot& s, const std::string& k);
[[nodiscard]] std::uint64_t hist_count(const Snapshot& s,
                                       const std::string& k);
/// Sum over every histogram whose name starts with `prefix`.
[[nodiscard]] std::uint64_t hist_sum_prefix(const Snapshot& s,
                                            const std::string& prefix);
/// Codec words (encode + decode) over every EMT.
[[nodiscard]] std::uint64_t codec_words(const Snapshot& s);

}  // namespace perfbench
