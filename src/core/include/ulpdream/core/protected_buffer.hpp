#pragma once
// MemorySystem + ProtectedBuffer: the glue between applications and the
// faulty memory. A MemorySystem owns the voltage-scaled data array (sized
// for the EMT's payload width) and, when the EMT needs one, the error-free
// side array. ProtectedBuffer exposes a SampleBuffer-conforming window of
// that memory: every set() runs the EMT encoder, and every get() is one
// device read — counted in the data and side AccessStats, CodecCounters
// and mem.fault_patch_words exactly as the paper's extended VirtualSOC
// model counts it.
//
// The host decodes each stored word once, not once per read. Faults are
// permanent stuck-at bits and Emt::decode() is a pure function of
// (payload, safe word), so what a read returns is fixed when the word is
// written. The MemorySystem keeps a decoded shadow of the data array —
// each word's sample plus whether its decode corrected or detected an
// error and whether a fault entry patched it. store_block() fills it for
// the words it writes; a word written by set(), or not written since the
// last attach or scramble, is decoded on its first read, with the rest of
// that read's window. A read copies the samples and replays the flags
// into the counters, so only host work is skipped. attach_faults() and
// set_scrambler() change what a read returns, so both drop the shadow.
// The raw "none" path over a memory with no fault entries has nothing to
// decode and keeps a plain copy of the data array.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ulpdream/core/emt.hpp"
#include "ulpdream/mem/memory.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::core {

class MemorySystem {
 public:
  /// `words`: capacity of the data array in 16-bit samples (default: the
  /// paper's full 32 kB / 16-bit geometry).
  ///
  /// Lifetime: the MemorySystem keeps a non-owning reference to `emt`,
  /// which must outlive it. In particular do NOT pass a dereferenced
  /// temporary (`MemorySystem sys(*make_emt(k))` dangles) — keep the
  /// unique_ptr alive alongside the system.
  explicit MemorySystem(const Emt& emt,
                        std::size_t words = mem::MemoryGeometry::kWords16,
                        int banks = mem::MemoryGeometry::kBanks);

  [[nodiscard]] const Emt& emt() const noexcept { return *emt_; }
  /// Read-only views of the two arrays (stats, geometry). Every write goes
  /// through store_block()/store_word(), so none can bypass the shadow.
  [[nodiscard]] const mem::FaultyMemory& data() const noexcept {
    return data_;
  }
  [[nodiscard]] const mem::SafeMemory* safe() const noexcept {
    return safe_ ? &*safe_ : nullptr;
  }

  /// Both drop the decoded shadow. The attached map must not be edited
  /// while attached: attach it again after FaultMap::edit().
  void attach_faults(const mem::FaultMap* map);
  void set_scrambler(std::uint64_t seed);

  [[nodiscard]] CodecCounters& counters() noexcept { return counters_; }
  [[nodiscard]] const CodecCounters& counters() const noexcept {
    return counters_;
  }

  void reset_stats();

  /// Batched data path: encodes and writes `src.size()` samples starting
  /// at data-array address `addr` (and the matching side words when the
  /// EMT keeps any). Bit-identical — decoded values, CodecCounters and
  /// AccessStats — to the equivalent loop of word accesses, but pays one
  /// virtual codec dispatch and one bounds check per window chunk instead
  /// of per word.
  void store_block(std::size_t addr, std::span<const fixed::Sample> src);
  /// Reads and decodes `dst.size()` words starting at `addr`.
  void load_block(std::size_t addr, std::span<fixed::Sample> dst);

  /// One-word transfers (ProtectedBuffer::set/get): the same as a one-word
  /// store_block/load_block, without the per-call codec telemetry.
  void store_word(std::size_t addr, fixed::Sample s);
  [[nodiscard]] fixed::Sample load_word(std::size_t addr);

  /// Bump allocator over the data array (word granularity). Throws
  /// std::bad_alloc when the 32 kB footprint would be exceeded — apps must
  /// fit the device memory, as on the real node.
  [[nodiscard]] std::size_t allocate(std::size_t words);
  void reset_allocator() noexcept { next_free_ = 0; }
  [[nodiscard]] std::size_t words_allocated() const noexcept {
    return next_free_;
  }

 private:
  /// Per-EMT telemetry handles (names "codec.<emt>.*"), resolved once at
  /// construction so the block path pays only relaxed fetch_adds. The
  /// *_block_ns latency histograms additionally gate on
  /// telemetry::hot_timing_enabled() — clock reads are not free at
  /// ~1270 Macc/s. They time whole calls: encode_block_ns a store_block,
  /// including its decode into the shadow; decode_block_ns a load_block,
  /// a copy plus the decode of words not decoded since their write.
  struct CodecTelemetry {
    util::telemetry::Counter encode_calls, encode_words;
    util::telemetry::Counter decode_calls, decode_words;
    util::telemetry::Histogram encode_block_ns, decode_block_ns;
  };
  static CodecTelemetry make_codec_telemetry(const std::string& emt_name);
  void store_block_impl(std::size_t addr, std::span<const fixed::Sample> src);
  void load_block_impl(std::size_t addr, std::span<fixed::Sample> dst);
  /// True when reads need no shadow: the raw "none" data path over a
  /// memory with no fault entries, where a read is a plain copy.
  [[nodiscard]] bool plain_path() const noexcept;
  /// Decodes the words [addr, addr + n) as a read would see them now and
  /// caches them in the shadow (which must already cover the range).
  void decode_into_shadow(std::size_t addr, std::size_t n);
  /// Marks every entry for decoding on its next read: with an aliasing
  /// scrambler, a write may change what other logical words read.
  void drop_shadow();
  void grow_shadow(std::size_t end);

  const Emt* emt_;
  bool raw_;  ///< emt_->raw_data_path(), resolved once
  mem::FaultyMemory data_;
  std::optional<mem::SafeMemory> safe_;
  CodecCounters counters_;
  CodecTelemetry telemetry_;
  std::size_t next_free_ = 0;
  /// Decoded shadow, indexed by data-array address and grown on demand to
  /// the highest word accessed: the sample a read returns and its
  /// kShadow* flags (protected_buffer.cpp). A word whose kShadowValid is
  /// clear is decoded on its next read.
  std::vector<fixed::Sample> shadow_;
  std::vector<std::uint8_t> shadow_flags_;
  /// The scrambler over a word count that is not a power of two is not a
  /// bijection (mem::FaultyMemory::set_scrambler), so two logical words
  /// can share a physical one and every write drops the whole shadow.
  bool scramble_aliases_ = false;
};

/// SampleBuffer view over a MemorySystem allocation.
class ProtectedBuffer {
 public:
  ProtectedBuffer(MemorySystem& system, std::size_t base, std::size_t length)
      : system_(&system), base_(base), length_(length) {}

  /// Allocates a fresh buffer of `length` words from the system.
  static ProtectedBuffer allocate(MemorySystem& system, std::size_t length) {
    return {system, system.allocate(length), length};
  }

  [[nodiscard]] fixed::Sample get(std::size_t i) const;
  void set(std::size_t i, fixed::Sample s);
  [[nodiscard]] std::size_t size() const noexcept { return length_; }

  /// Block window transfers (the batched data path). Naming follows the
  /// signal-buffer convention: load() moves samples *into* the device
  /// memory, store() reads a window back out. Both are loop-equivalent to
  /// set()/get() — same decoded bits, CodecCounters and AccessStats —
  /// and throw std::out_of_range when [i, i + span) exceeds the buffer.
  void load(std::size_t i, std::span<const fixed::Sample> src);
  void store(std::size_t i, std::span<fixed::Sample> dst) const;

  [[nodiscard]] std::size_t base() const noexcept { return base_; }

 private:
  MemorySystem* system_;
  std::size_t base_;
  std::size_t length_;
};

}  // namespace ulpdream::core
