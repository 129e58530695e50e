#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/simd.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return ulpdream::util::mix64(seed, stream);
}

std::uint64_t store_digest(const ulpdream::campaign::ResultStore& store,
                           bool corrupt) {
  std::ostringstream os;
  store.save(os);
  std::string text = os.str();
  if (corrupt && !text.empty()) text[text.size() / 2] ^= 1;
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

bool same_sample(const ulpdream::campaign::Sample& a,
                 const ulpdream::campaign::Sample& b) {
  return a.snr_db == b.snr_db && a.corrected_words == b.corrected_words &&
         a.detected_uncorrectable == b.detected_uncorrectable &&
         a.energy.data_dynamic_j == b.energy.data_dynamic_j &&
         a.energy.side_dynamic_j == b.energy.side_dynamic_j &&
         a.energy.codec_j == b.energy.codec_j &&
         a.energy.data_leak_j == b.energy.data_leak_j &&
         a.energy.side_leak_j == b.energy.side_leak_j;
}

}  // namespace

bool same_samples(const ulpdream::campaign::ResultStore& a,
                  const ulpdream::campaign::ResultStore& b) {
  const auto items_a = a.slot_items();
  const auto items_b = b.slot_items();
  if (!std::equal(items_a.begin(), items_a.end(), items_b.begin(),
                  items_b.end())) {
    return false;
  }
  for (std::size_t slot = 0; slot < items_a.size(); ++slot) {
    if (a.slot_done(slot) != b.slot_done(slot)) return false;
    if (!a.slot_done(slot)) continue;
    const auto sa = a.slot_samples(slot);
    const auto sb = b.slot_samples(slot);
    if (sa.size() != sb.size()) return false;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (!same_sample(sa[i], sb[i])) return false;
    }
  }
  const auto ma = a.max_snr_values();
  const auto mb = b.max_snr_values();
  return std::equal(ma.begin(), ma.end(), mb.begin(), mb.end());
}

namespace {

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string machine_json() {
  namespace simd = ulpdream::util::simd;
  const Snapshot snap = ulpdream::util::telemetry::snapshot();
  const auto tier = snap.gauges.find("simd.active_tier");
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << json_escape(cpu_model()) << "\""
     << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER) << "\""
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"simd.active_tier\": "
     << (tier != snap.gauges.end() ? tier->second : -1.0)
     << ", \"simd.tier_name\": \"" << simd::tier_name(simd::active_tier())
     << "\"}";
  return os.str();
}

std::uint64_t counter(const Snapshot& s, const std::string& k) {
  const auto it = s.counters.find(k);
  return it == s.counters.end() ? 0 : it->second;
}

std::uint64_t hist_sum(const Snapshot& s, const std::string& k) {
  const auto it = s.histograms.find(k);
  return it == s.histograms.end() ? 0 : it->second.sum;
}

std::uint64_t hist_count(const Snapshot& s, const std::string& k) {
  const auto it = s.histograms.find(k);
  return it == s.histograms.end() ? 0 : it->second.count();
}

std::uint64_t hist_sum_prefix(const Snapshot& s, const std::string& prefix) {
  std::uint64_t total = 0;
  for (auto it = s.histograms.lower_bound(prefix);
       it != s.histograms.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    total += it->second.sum;
  }
  return total;
}

std::uint64_t codec_words(const Snapshot& s) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : s.counters) {
    if (name.rfind("codec.", 0) != 0) continue;
    if (name.ends_with(".encode_words") || name.ends_with(".decode_words")) {
      total += value;
    }
  }
  return total;
}

}  // namespace perfbench
