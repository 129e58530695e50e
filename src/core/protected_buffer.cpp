#include "ulpdream/core/protected_buffer.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>

namespace ulpdream::core {

MemorySystem::CodecTelemetry MemorySystem::make_codec_telemetry(
    const std::string& emt_name) {
  namespace tel = util::telemetry;
  const std::string prefix = "codec." + emt_name + ".";
  return {tel::Counter(prefix + "encode_calls"),
          tel::Counter(prefix + "encode_words"),
          tel::Counter(prefix + "decode_calls"),
          tel::Counter(prefix + "decode_words"),
          tel::Histogram(prefix + "encode_block_ns"),
          tel::Histogram(prefix + "decode_block_ns")};
}

MemorySystem::MemorySystem(const Emt& emt, std::size_t words, int banks)
    : emt_(&emt),
      raw_(emt.raw_data_path()),
      data_(words, emt.payload_bits(), banks),
      telemetry_(make_codec_telemetry(emt.name())) {
  if (emt.safe_bits() > 0) {
    safe_.emplace(words, emt.safe_bits());
  }
}

void MemorySystem::attach_faults(const mem::FaultMap* map) {
  data_.attach_faults(map);
  shadow_.clear();
  shadow_flags_.clear();
}

void MemorySystem::set_scrambler(std::uint64_t seed) {
  data_.set_scrambler(seed);
  const std::size_t words = data_.words();
  scramble_aliases_ = seed != 0 && (words & (words - 1)) != 0;
  shadow_.clear();
  shadow_flags_.clear();
}

void MemorySystem::reset_stats() {
  data_.reset_stats();
  if (safe_) safe_->reset_stats();
  counters_.reset();
}

std::size_t MemorySystem::allocate(std::size_t words) {
  if (next_free_ + words > data_.words()) {
    throw std::bad_alloc();  // exceeds the device's 32 kB data memory
  }
  const std::size_t base = next_free_;
  next_free_ += words;
  return base;
}

namespace {
/// Window chunk for the block data path: big enough to amortize the
/// per-chunk virtual dispatch and the block accessors' O(banks) stat
/// bookkeeping, small enough to stay in L1 and on the stack.
constexpr std::size_t kBlockChunk = 1024;
/// Shadow decode chunk: the stack buffers decode_into_shadow() stages
/// the peeked payload and side words in.
constexpr std::size_t kDecodeChunk = 256;

// Shadow flag bits, one byte per word.
constexpr std::uint8_t kShadowValid = 1;
constexpr std::uint8_t kShadowCorrected = 2;
constexpr std::uint8_t kShadowDetected = 4;
constexpr std::uint8_t kShadowPatched = 8;

/// How many of a run of shadow flags have each bit set. Two fields of 32
/// bits per accumulator, so one pair of adds per word counts all four.
struct FlagTally {
  std::uint64_t valid, corrected, detected, patched;
};
FlagTally tally_flags(const std::uint8_t* flags, std::size_t n) {
  std::uint64_t valid_corrected = 0;
  std::uint64_t detected_patched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t f = flags[i];
    valid_corrected += (f & kShadowValid) | (f & kShadowCorrected) << 31;
    detected_patched += (f & kShadowDetected) >> 2 | (f & kShadowPatched)
                                                         << 29;
  }
  return {valid_corrected & 0xFFFFFFFFu, valid_corrected >> 32,
          detected_patched & 0xFFFFFFFFu, detected_patched >> 32};
}
}  // namespace

bool MemorySystem::plain_path() const noexcept {
  const mem::FaultMap* const faults = data_.faults();
  return raw_ && (faults == nullptr || faults->entry_count() == 0);
}

void MemorySystem::decode_into_shadow(std::size_t addr, std::size_t n) {
  std::uint32_t payload[kDecodeChunk];
  std::uint16_t safe_words[kDecodeChunk];
  std::uint8_t patched[kDecodeChunk];
  const mem::SafeMemory* const safe = safe_ ? &*safe_ : nullptr;
  while (n != 0) {
    const std::size_t m = std::min(kDecodeChunk, n);
    std::span<const std::uint16_t> safe_span;
    data_.peek_block(addr, std::span<std::uint32_t>(payload, m),
                     std::span<std::uint8_t>(patched, m));
    if (safe != nullptr) {
      safe->peek_block(addr, std::span<std::uint16_t>(safe_words, m));
      safe_span = std::span<const std::uint16_t>(safe_words, m);
    }
    CodecCounters chunk;
    emt_->decode_block(std::span<const std::uint32_t>(payload, m), safe_span,
                       std::span<fixed::Sample>(shadow_.data() + addr, m),
                       &chunk);
    std::uint8_t* const flags = shadow_flags_.data() + addr;
    for (std::size_t i = 0; i < m; ++i) {
      flags[i] = patched[i] != 0 ? kShadowValid | kShadowPatched
                                 : kShadowValid;
    }
    if (chunk.corrected_words != 0 || chunk.detected_uncorrectable != 0) {
      // decode_block reports the chunk's counts, not which words made
      // them. Decode words one at a time to find out: the patched ones
      // first (a word no fault touched reads back as it was encoded), and
      // all the others too only if the patched ones do not account for
      // every count.
      CodecCounters seen;
      const auto mark = [&](std::size_t i) {
        CodecCounters word;
        (void)emt_->decode(payload[i], safe != nullptr ? safe_words[i] : 0,
                           &word);
        if (word.corrected_words != 0) flags[i] |= kShadowCorrected;
        if (word.detected_uncorrectable != 0) flags[i] |= kShadowDetected;
        seen.corrected_words += word.corrected_words;
        seen.detected_uncorrectable += word.detected_uncorrectable;
      };
      for (std::size_t i = 0; i < m; ++i) {
        if (patched[i] != 0) mark(i);
      }
      if (seen.corrected_words != chunk.corrected_words ||
          seen.detected_uncorrectable != chunk.detected_uncorrectable) {
        for (std::size_t i = 0; i < m; ++i) {
          if (patched[i] == 0) mark(i);
        }
      }
    }
    addr += m;
    n -= m;
  }
}

void MemorySystem::store_block(std::size_t addr,
                               std::span<const fixed::Sample> src) {
  telemetry_.encode_calls.add();
  telemetry_.encode_words.add(src.size());
  const bool timed = util::telemetry::hot_timing_enabled();
  const std::uint64_t t0 = timed ? util::telemetry::now_ns() : 0;
  store_block_impl(addr, src);
  if (timed) {
    telemetry_.encode_block_ns.record(util::telemetry::now_ns() - t0);
  }
}

void MemorySystem::store_block_impl(std::size_t addr,
                                    std::span<const fixed::Sample> src) {
  const std::size_t first = addr;
  const std::size_t n = src.size();
  if (raw_) {
    // Samples are the payload verbatim: scatter straight from the source
    // span (int16_t reinterpreted as its unsigned twin — the same
    // zero-extension encode_payload performs).
    data_.write_block(
        addr, std::span<const std::uint16_t>(
                  reinterpret_cast<const std::uint16_t*>(src.data()),
                  src.size()));
  } else {
    std::uint32_t payload[kBlockChunk];
    std::uint16_t safe_words[kBlockChunk];
    mem::SafeMemory* const safe = safe_ ? &*safe_ : nullptr;
    while (!src.empty()) {
      const std::size_t m = std::min<std::size_t>(kBlockChunk, src.size());
      emt_->encode_block(
          src.first(m), std::span<std::uint32_t>(payload, m),
          safe != nullptr ? std::span<std::uint16_t>(safe_words, m)
                          : std::span<std::uint16_t>());
      data_.write_block(addr, std::span<const std::uint32_t>(payload, m));
      if (safe != nullptr) {
        safe->write_block(addr,
                          std::span<const std::uint16_t>(safe_words, m));
      }
      addr += m;
      src = src.subspan(m);
    }
  }
  if (plain_path()) return;
  if (scramble_aliases_) drop_shadow();
  grow_shadow(first + n);
  decode_into_shadow(first, n);
}

void MemorySystem::drop_shadow() {
  std::fill(shadow_flags_.begin(), shadow_flags_.end(), std::uint8_t{0});
}

void MemorySystem::grow_shadow(std::size_t end) {
  if (shadow_.size() < end) {
    shadow_.resize(end);
    shadow_flags_.resize(end);
  }
}

void MemorySystem::load_block(std::size_t addr,
                              std::span<fixed::Sample> dst) {
  telemetry_.decode_calls.add();
  telemetry_.decode_words.add(dst.size());
  const bool timed = util::telemetry::hot_timing_enabled();
  const std::uint64_t t0 = timed ? util::telemetry::now_ns() : 0;
  load_block_impl(addr, dst);
  if (timed) {
    telemetry_.decode_block_ns.record(util::telemetry::now_ns() - t0);
  }
}

void MemorySystem::load_block_impl(std::size_t addr,
                                   std::span<fixed::Sample> dst) {
  const std::size_t n = dst.size();
  if (plain_path()) {
    data_.read_block(addr,
                     std::span<std::uint16_t>(
                         reinterpret_cast<std::uint16_t*>(dst.data()), n));
    counters_.decodes += n;
    return;
  }
  if (n > data_.words() || addr > data_.words() - n) {
    throw std::out_of_range("MemorySystem::load_block: range");
  }
  grow_shadow(addr + n);
  const std::uint8_t* const flags = shadow_flags_.data() + addr;
  FlagTally tally = tally_flags(flags, n);
  if (tally.valid != n) {
    // Words not decoded since their write, or since the last attach or
    // scramble: decode each run of them once, then count again.
    for (std::size_t i = 0; i < n;) {
      if ((flags[i] & kShadowValid) != 0) {
        ++i;
        continue;
      }
      std::size_t end = i + 1;
      while (end < n && (flags[end] & kShadowValid) == 0) ++end;
      decode_into_shadow(addr + i, end - i);
      i = end;
    }
    tally = tally_flags(flags, n);
  }
  std::copy_n(shadow_.data() + addr, n, dst.data());
  counters_.decodes += n;
  counters_.corrected_words += tally.corrected;
  counters_.detected_uncorrectable += tally.detected;
  data_.count_reads(addr, n, tally.patched);
  if (safe_) safe_->count_reads(addr, n);
}

void MemorySystem::store_word(std::size_t addr, fixed::Sample s) {
  data_.write(addr, emt_->encode_payload(s));
  if (safe_) safe_->write(addr, emt_->encode_safe(s));
  // Decoded on its first read, together with the rest of that read's
  // window: the apps write single words in runs (a matrix column, a CS
  // measurement block) that they read back as one window.
  if (scramble_aliases_) {
    drop_shadow();
  } else if (addr < shadow_flags_.size()) {
    shadow_flags_[addr] = 0;
  }
}

fixed::Sample MemorySystem::load_word(std::size_t addr) {
  if (plain_path()) {
    ++counters_.decodes;
    return static_cast<fixed::Sample>(
        static_cast<std::uint16_t>(data_.read(addr)));
  }
  if (addr >= data_.words()) {
    throw std::out_of_range("MemorySystem::load_word: range");
  }
  grow_shadow(addr + 1);
  if ((shadow_flags_[addr] & kShadowValid) == 0) decode_into_shadow(addr, 1);
  const std::uint8_t f = shadow_flags_[addr];
  ++counters_.decodes;
  counters_.corrected_words += (f & kShadowCorrected) != 0 ? 1 : 0;
  counters_.detected_uncorrectable += (f & kShadowDetected) != 0 ? 1 : 0;
  data_.count_reads(addr, 1, (f & kShadowPatched) != 0 ? 1 : 0);
  if (safe_) safe_->count_reads(addr, 1);
  return shadow_[addr];
}

fixed::Sample ProtectedBuffer::get(std::size_t i) const {
  if (i >= length_) throw std::out_of_range("ProtectedBuffer::get");
  return system_->load_word(base_ + i);
}

void ProtectedBuffer::set(std::size_t i, fixed::Sample s) {
  if (i >= length_) throw std::out_of_range("ProtectedBuffer::set");
  system_->store_word(base_ + i, s);
}

void ProtectedBuffer::load(std::size_t i, std::span<const fixed::Sample> src) {
  if (src.size() > length_ || i > length_ - src.size()) {
    throw std::out_of_range("ProtectedBuffer::load");
  }
  system_->store_block(base_ + i, src);
}

void ProtectedBuffer::store(std::size_t i, std::span<fixed::Sample> dst) const {
  if (dst.size() > length_ || i > length_ - dst.size()) {
    throw std::out_of_range("ProtectedBuffer::store");
  }
  system_->load_block(base_ + i, dst);
}

}  // namespace ulpdream::core
