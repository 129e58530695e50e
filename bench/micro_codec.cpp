// Engineering microbenchmarks (not paper artifacts), two modes:
//
//  - default: google-benchmark throughput of the EMT codecs, the
//    faulty-memory access path and the main DSP kernels (built only when
//    the library is available; used to size experiment runtimes);
//  - --datapath: self-timed data-path benchmark on the paper's 32 kB
//    geometry at the call shapes the apps issue — one word at a time
//    (ProtectedBuffer::set/get, as CS and the strided filter taps use it)
//    and windows of 11, 27, 64 and 128 words (ProtectedBuffer::load/store:
//    delineation scans, morphology windows, matrix rows and columns) —
//    for every EMT at a chosen supply voltage. Each shape runs in two
//    modes: "fill" writes a window and reads it back, so every read is
//    the first since its write and pays the decode; "hit" re-reads an
//    already written buffer, the cost of every further read. Verifies
//    that the word and window paths are bit-identical (decoded words,
//    CodecCounters, AccessStats) and that every shape and mode reads back
//    the same checksum, and emits machine-readable JSON (stdout, or
//    --json FILE with a human summary on stdout). The address scrambler
//    is on, so the scrambled gather and scatter paths are the ones timed
//    and checked. CI runs this as the perf-trajectory smoke step.
//
//    Example: micro_codec --datapath --volt 0.8 --json BENCH_datapath.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ulpdream/core/dream.hpp"
#include "ulpdream/core/ecc_secded.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/no_protection.hpp"
#include "ulpdream/core/protected_buffer.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/mem/fault_map.hpp"
#include "ulpdream/util/bench.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/simd.hpp"
#include "ulpdream/util/telemetry.hpp"

#ifdef ULPDREAM_HAVE_GBENCH
#include <benchmark/benchmark.h>

#include "ulpdream/cs/omp.hpp"
#include "ulpdream/cs/sensing_matrix.hpp"
#include "ulpdream/signal/morphology.hpp"
#include "ulpdream/signal/wavelet.hpp"
#endif

using namespace ulpdream;

namespace {

// ---------------------------------------------------------------------------
// --datapath mode.

constexpr std::uint64_t kScramblerSeed = 0xDA7A9A7Bu;

/// Call shapes: 1 is the word path (set/get), the rest are window sizes.
constexpr std::size_t kShapes[] = {1, 11, 27, 64, 128};

struct ShapeTiming {
  std::size_t window = 0;
  double fill_ns_per_word = 0.0;
  double hit_ns_per_word = 0.0;
};

struct DatapathRow {
  std::string emt;
  std::vector<ShapeTiming> shapes;
  bool identical = false;
  std::uint64_t checksum = 0;  ///< decoded-output sum of one buffer pass
};

std::uint64_t sum_words(std::span<const fixed::Sample> words) {
  std::uint64_t sum = 0;
  for (const fixed::Sample s : words) sum += static_cast<std::uint16_t>(s);
  return sum;
}

/// One pass over the whole buffer in `window`-word calls (the last one
/// shorter when the window does not divide the buffer). With `src`, each
/// window is written first ("fill"); without, it is only read ("hit").
/// Returns the sum of the words read.
std::uint64_t window_pass(core::ProtectedBuffer& buf, std::size_t window,
                          const fixed::SampleVec* src, fixed::SampleVec& dst) {
  std::uint64_t sum = 0;
  const std::size_t words = buf.size();
  for (std::size_t addr = 0; addr < words; addr += window) {
    const std::size_t n = std::min(window, words - addr);
    if (window == 1) {
      if (src != nullptr) buf.set(addr, (*src)[addr]);
      sum += static_cast<std::uint16_t>(buf.get(addr));
      continue;
    }
    if (src != nullptr) {
      buf.load(addr, std::span<const fixed::Sample>(src->data() + addr, n));
    }
    buf.store(addr, std::span<fixed::Sample>(dst.data(), n));
    sum += sum_words(std::span<const fixed::Sample>(dst.data(), n));
  }
  return sum;
}

bool stats_equal(const mem::AccessStats& a, const mem::AccessStats& b) {
  return a.reads == b.reads && a.writes == b.writes &&
         a.bank_reads == b.bank_reads && a.bank_writes == b.bank_writes;
}

core::MemorySystem make_system(const core::Emt& emt, const mem::FaultMap& map,
                               std::size_t words) {
  core::MemorySystem system(emt, words);
  system.attach_faults(&map);
  system.set_scrambler(kScramblerSeed);
  return system;
}

/// Bit-identity check: word-at-a-time and whole-buffer block sweeps over
/// identical systems must produce the same decoded words, codec counters
/// and access stats.
bool paths_identical(const core::Emt& emt, const mem::FaultMap& map,
                     const fixed::SampleVec& src) {
  fixed::SampleVec scalar_out(src.size());
  fixed::SampleVec block_out(src.size());
  core::MemorySystem scalar = make_system(emt, map, src.size());
  core::MemorySystem block = make_system(emt, map, src.size());
  auto scalar_buf = core::ProtectedBuffer::allocate(scalar, src.size());
  auto block_buf = core::ProtectedBuffer::allocate(block, src.size());
  for (std::size_t i = 0; i < src.size(); ++i) scalar_buf.set(i, src[i]);
  for (std::size_t i = 0; i < src.size(); ++i) scalar_out[i] = scalar_buf.get(i);
  block_buf.load(0, std::span<const fixed::Sample>(src.data(), src.size()));
  block_buf.store(0, std::span<fixed::Sample>(block_out.data(), src.size()));
  const core::CodecCounters& a = scalar.counters();
  const core::CodecCounters& b = block.counters();
  const bool side_equal =
      scalar.safe() == nullptr ||
      stats_equal(scalar.safe()->stats(), block.safe()->stats());
  return scalar_out == block_out && a.decodes == b.decodes &&
         a.corrected_words == b.corrected_words &&
         a.detected_uncorrectable == b.detected_uncorrectable &&
         stats_equal(scalar.data().stats(), block.data().stats()) &&
         side_equal;
}

/// Repeats `pass` until `min_seconds` of work is accumulated and returns
/// ns per buffer word. The untimed warm-up pass (touches every page,
/// fills caches) must return `checksum`, and so must every timed pass;
/// each result goes through an optimization barrier so no part of the
/// sweep can be dead-code-eliminated. A divergence clears `ok`.
template <typename Pass>
double time_pass(Pass&& pass, std::size_t words, double min_seconds,
                 std::uint64_t checksum, bool& ok) {
  using Clock = std::chrono::steady_clock;
  ok = ok && pass() == checksum;
  std::uint64_t mismatches = 0;
  std::uint64_t reps = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    const std::uint64_t sum = pass();
    util::do_not_optimize(sum);
    mismatches += (sum != checksum);
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  if (mismatches != 0) {
    std::fprintf(stderr, "datapath: %llu passes read a different checksum\n",
                 static_cast<unsigned long long>(mismatches));
    ok = false;
  }
  return elapsed * 1e9 /
         (static_cast<double>(reps) * static_cast<double>(words));
}

/// The benchmark's own telemetry, embedded so BENCH_datapath.json is
/// self-describing: per-EMT block-call latency histograms (recorded by
/// the instrumented MemorySystem under hot_timing) plus the SIMD tier.
void write_telemetry_block(std::ostream& os,
                           const util::telemetry::MetricsSnapshot& m) {
  os << "  \"telemetry\": {\n";
  os << "    \"simd_tier\": \""
     << util::simd::tier_name(util::simd::active_tier()) << "\",\n";
  os << "    \"codec_block_ns\": {";
  bool first = true;
  for (const auto& [name, h] : m.histograms) {
    // codec.<emt>.{encode,decode}_block_ns — sorted map, stable order.
    if (name.rfind("codec.", 0) != 0 || h.count() == 0) continue;
    os << (first ? "\n" : ",\n") << "      \"" << name
       << "\": {\"count\": " << h.count() << ", \"mean\": " << h.mean()
       << ", \"p50\": " << h.quantile(0.5) << ", \"p95\": " << h.quantile(0.95)
       << ", \"p99\": " << h.quantile(0.99) << "}";
    first = false;
  }
  os << (first ? "" : "\n    ") << "}\n  },\n";
}

void write_json(std::ostream& os, double volt, double ber, std::size_t words,
                const std::vector<DatapathRow>& rows) {
  os << "{\n";
  os << "  \"benchmark\": \"datapath\",\n";
  os << "  \"geometry\": {\"words\": " << words
     << ", \"banks\": " << mem::MemoryGeometry::kBanks
     << ", \"bytes\": " << mem::MemoryGeometry::kBytes << "},\n";
  os << "  \"voltage_v\": " << volt << ",\n";
  os << "  \"ber\": " << ber << ",\n";
  os << "  \"simd_tier\": \""
     << util::simd::tier_name(util::simd::active_tier()) << "\",\n";
  write_telemetry_block(os, util::telemetry::snapshot());
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DatapathRow& r = rows[i];
    os << "    {\"emt\": \"" << r.emt
       << "\", \"identical\": " << (r.identical ? "true" : "false")
       << ", \"checksum\": " << r.checksum << ", \"shapes\": [";
    for (std::size_t j = 0; j < r.shapes.size(); ++j) {
      const ShapeTiming& t = r.shapes[j];
      os << (j == 0 ? "" : ", ") << "{\"window\": " << t.window
         << ", \"fill_ns_per_word\": " << t.fill_ns_per_word
         << ", \"hit_ns_per_word\": " << t.hit_ns_per_word << "}";
    }
    os << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

int run_datapath(const util::Cli& cli) {
  // The timed passes run dark: the gated block-latency clock reads cost
  // more than a short window's transfer. One extra metered fill pass per
  // shape records the histograms the embedded JSON block reports,
  // starting from zero so it describes exactly this run.
  util::telemetry::reset_metrics();
  const double volt = cli.get_double("volt", 0.8);
  const double min_seconds = cli.get_double("min-time", 0.1);
  const std::size_t words = static_cast<std::size_t>(
      cli.get_int("words", static_cast<std::int64_t>(
                               mem::MemoryGeometry::kWords16)));
  const double ber = mem::LogLinearBerModel().ber(volt);

  // Realistic sample distribution (DREAM's run lengths depend on it):
  // a synthetic ECG trace tiled over the full array.
  const ecg::Record record = ecg::make_default_record(1);
  fixed::SampleVec src(words);
  for (std::size_t i = 0; i < words; ++i) {
    src[i] = record.samples[i % record.samples.size()];
  }

  // One fault map at the widest payload, shared by every EMT — the same
  // fairness protocol the experiments use.
  util::Xoshiro256 rng(2016);
  const mem::FaultMap map = mem::FaultMap::random(
      words, core::EccSecDed::kPayloadBits, ber, rng);

  std::vector<DatapathRow> rows;
  bool all_identical = true;
  for (const std::string& name : core::emt_names()) {
    const auto emt = core::make_emt(name);
    DatapathRow row;
    row.emt = emt->name();
    row.identical = paths_identical(*emt, map, src);

    core::MemorySystem system = make_system(*emt, map, words);
    auto buf = core::ProtectedBuffer::allocate(system, words);
    fixed::SampleVec dst(words);
    buf.load(0, std::span<const fixed::Sample>(src.data(), words));
    buf.store(0, std::span<fixed::Sample>(dst.data(), words));
    row.checksum = sum_words(dst);
    for (const std::size_t window : kShapes) {
      ShapeTiming t;
      t.window = window;
      t.fill_ns_per_word = time_pass(
          [&] { return window_pass(buf, window, &src, dst); }, words,
          min_seconds, row.checksum, row.identical);
      t.hit_ns_per_word = time_pass(
          [&] { return window_pass(buf, window, nullptr, dst); }, words,
          min_seconds, row.checksum, row.identical);
      row.shapes.push_back(t);
      util::telemetry::set_hot_timing(true);
      row.identical =
          row.identical && window_pass(buf, window, &src, dst) == row.checksum;
      util::telemetry::set_hot_timing(false);
    }
    all_identical = all_identical && row.identical;
    rows.push_back(row);

    std::fprintf(stderr, "datapath %-12s ns/word fill|hit:", row.emt.c_str());
    for (const ShapeTiming& t : row.shapes) {
      std::fprintf(stderr, "  w%zu %.2f|%.2f", t.window, t.fill_ns_per_word,
                   t.hit_ns_per_word);
    }
    std::fprintf(stderr, "  identical=%s checksum=%llu\n",
                 row.identical ? "yes" : "NO",
                 static_cast<unsigned long long>(row.checksum));
  }

  const std::string json_path = cli.get("json", "");
  if (json_path.empty()) {
    write_json(std::cout, volt, ber, words, rows);
  } else {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    write_json(os, volt, ber, words, rows);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: word and window paths diverged, or a pass read a "
                 "different checksum\n");
    return 1;
  }
  return 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// google-benchmark microbenchmarks (default mode).

#ifdef ULPDREAM_HAVE_GBENCH
namespace {

void BM_DreamEncode(benchmark::State& state) {
  const core::Dream dream;
  fixed::Sample s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dream.encode_safe(s));
    s = static_cast<fixed::Sample>(s + 7);
  }
}
BENCHMARK(BM_DreamEncode);

void BM_DreamDecode(benchmark::State& state) {
  const core::Dream dream;
  fixed::Sample s = 0;
  for (auto _ : state) {
    const std::uint16_t safe = dream.encode_safe(s);
    benchmark::DoNotOptimize(dream.decode(dream.encode_payload(s) ^ 0x8000u,
                                          safe));
    s = static_cast<fixed::Sample>(s + 7);
  }
}
BENCHMARK(BM_DreamDecode);

void BM_EccEncode(benchmark::State& state) {
  const core::EccSecDed ecc;
  fixed::Sample s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecc.encode_payload(s));
    s = static_cast<fixed::Sample>(s + 7);
  }
}
BENCHMARK(BM_EccEncode);

void BM_EccDecodeWithError(benchmark::State& state) {
  const core::EccSecDed ecc;
  fixed::Sample s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecc.decode(ecc.encode_payload(s) ^ 0x10u, 0));
    s = static_cast<fixed::Sample>(s + 7);
  }
}
BENCHMARK(BM_EccDecodeWithError);

void BM_ProtectedBufferAccess(benchmark::State& state) {
  const core::Dream dream;
  core::MemorySystem system(dream, 4096);
  util::Xoshiro256 rng(1);
  const mem::FaultMap map =
      mem::FaultMap::random(4096, 16, 1e-3, rng);
  system.attach_faults(&map);
  auto buf = core::ProtectedBuffer::allocate(system, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    buf.set(i, static_cast<fixed::Sample>(i));
    benchmark::DoNotOptimize(buf.get(i));
    i = (i + 1) % 4096;
  }
}
BENCHMARK(BM_ProtectedBufferAccess);

void BM_ProtectedBufferBlockAccess(benchmark::State& state) {
  const core::Dream dream;
  core::MemorySystem system(dream, 4096);
  util::Xoshiro256 rng(1);
  const mem::FaultMap map =
      mem::FaultMap::random(4096, 16, 1e-3, rng);
  system.attach_faults(&map);
  auto buf = core::ProtectedBuffer::allocate(system, 4096);
  fixed::SampleVec window(4096);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = static_cast<fixed::Sample>(i);
  }
  for (auto _ : state) {
    buf.load(0, std::span<const fixed::Sample>(window.data(), window.size()));
    buf.store(0, std::span<fixed::Sample>(window.data(), window.size()));
    benchmark::DoNotOptimize(window.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * 4096);
}
BENCHMARK(BM_ProtectedBufferBlockAccess);

void BM_FaultMapGeneration(benchmark::State& state) {
  util::Xoshiro256 rng(2);
  const double ber = 1e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mem::FaultMap::random(mem::MemoryGeometry::kWords16, 22, ber, rng));
  }
}
BENCHMARK(BM_FaultMapGeneration);

void BM_DwtMulti2048(benchmark::State& state) {
  const ecg::Record rec = ecg::make_default_record(1);
  signal::VecBuffer in(fixed::SampleVec(rec.samples.begin(),
                                        rec.samples.begin() + 2048));
  signal::VecBuffer out(2048);
  signal::VecBuffer scratch(2048);
  const signal::FixedBank bank =
      signal::fixed_bank(signal::WaveletFamily::kDb4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        signal::dwt_multi(in, 2048, bank, 4, out, scratch));
  }
}
BENCHMARK(BM_DwtMulti2048);

void BM_MorphologyOpen2048(benchmark::State& state) {
  const ecg::Record rec = ecg::make_default_record(1);
  signal::VecBuffer in(fixed::SampleVec(rec.samples.begin(),
                                        rec.samples.begin() + 2048));
  signal::VecBuffer tmp(2048);
  signal::VecBuffer out(2048);
  for (auto _ : state) {
    signal::open(in, tmp, out, 13, 2048);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MorphologyOpen2048);

void BM_OmpReconstruct(benchmark::State& state) {
  const linalg::Matrix a = cs::bernoulli_matrix(128, 256, 5);
  util::Xoshiro256 rng(3);
  std::vector<double> y(128);
  for (auto& v : y) v = rng.gaussian();
  cs::OmpConfig cfg;
  cfg.max_atoms = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::omp_solve(a, y, cfg));
  }
}
BENCHMARK(BM_OmpReconstruct)->Arg(16)->Arg(32)->Arg(64);

}  // namespace
#endif  // ULPDREAM_HAVE_GBENCH

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.has("datapath")) return run_datapath(cli);
#ifdef ULPDREAM_HAVE_GBENCH
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "google-benchmark not available; run with --datapath for the "
               "data-path benchmark\n");
  return 1;
#endif
}
