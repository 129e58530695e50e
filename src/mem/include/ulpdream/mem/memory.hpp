#pragma once
// The INYU-style banked data memory model (VirtualSOC substitute, see
// DESIGN.md). A 32 kB shared memory organized as 16 banks behind a
// crossbar, accessed word-at-a-time at 200 MHz. The data array can be
// voltage-scaled and therefore carries a stuck-at fault map; the small
// side array used by DREAM for mask IDs always runs at nominal voltage and
// is error-free by construction.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ulpdream/mem/fault_map.hpp"

namespace ulpdream::mem {

/// Geometry defaults taken from the paper's experimental setup (Sec. V).
struct MemoryGeometry {
  static constexpr std::size_t kBytes = 32 * 1024;
  static constexpr std::size_t kWords16 = kBytes / 2;  ///< 16384 words
  static constexpr int kBanks = 16;
  static constexpr double kClockHz = 200e6;
};

/// Read/write counters, total and per bank — the access traces the energy
/// model integrates over.
struct AccessStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::vector<std::uint64_t> bank_reads;
  std::vector<std::uint64_t> bank_writes;

  void reset(std::size_t banks);
  [[nodiscard]] std::uint64_t total() const noexcept { return reads + writes; }
};

/// Word-addressable memory with configurable word width (16 data bits plus
/// any EMT check bits stored in the scaled array), banking, an optional
/// stuck-at fault map and an optional logical->physical address scrambler.
class FaultyMemory {
 public:
  FaultyMemory(std::size_t words, int width_bits,
               int banks = MemoryGeometry::kBanks);

  [[nodiscard]] std::size_t words() const noexcept { return store_.size(); }
  [[nodiscard]] int width_bits() const noexcept { return width_; }
  [[nodiscard]] int banks() const noexcept { return banks_; }

  /// Attaches (non-owning) a fault map; pass nullptr to clear. The map's
  /// geometry is validated: it must cover this memory (word count >= words()
  /// and bits_per_word >= width_bits()), otherwise std::invalid_argument is
  /// thrown and the previously attached map stays in effect.
  void attach_faults(const FaultMap* map);
  [[nodiscard]] const FaultMap* faults() const noexcept { return faults_; }

  /// Enables logical->physical address scrambling with the given seed
  /// (0 disables). Scrambling randomizes which logical word lands on which
  /// physical (possibly faulty) row — the paper's Sec. V randomization.
  void set_scrambler(std::uint64_t seed);

  void write(std::size_t addr, std::uint32_t bits);
  [[nodiscard]] std::uint32_t read(std::size_t addr) const;

  /// Block transfers: semantically identical to a loop of word accesses
  /// over [addr, addr + span size) — same scrambling, fault application,
  /// masking and per-bank stats — but with the address math, fault lookup
  /// and bookkeeping hoisted into one tight loop and a single bounds
  /// check. The batched data path (ProtectedBuffer::load/store) is built
  /// on these. Throws std::out_of_range when the range does not fit.
  void write_block(std::size_t addr, std::span<const std::uint32_t> src);
  void read_block(std::size_t addr, std::span<std::uint32_t> dst) const;

  /// 16-bit block transfers for EMTs whose payload is the raw sample word
  /// (width_bits() <= 16): same semantics as the 32-bit overloads — writes
  /// zero-extend, reads truncate after the width mask, which loses nothing
  /// when the word fits in 16 bits — without a 32-bit staging buffer in
  /// the caller. The 16-bit read throws std::logic_error on a wider word.
  void write_block(std::size_t addr, std::span<const std::uint16_t> src);
  void read_block(std::size_t addr, std::span<std::uint16_t> dst) const;

  /// The two halves of read_block, for callers that keep their own copy
  /// of what a read returns. peek_block moves the bits read_block would
  /// return into `dst` and sets patched[i] to 1 where a fault entry
  /// applied to word i (0 elsewhere), touching neither stats nor
  /// telemetry. count_reads does the accounting alone: the AccessStats
  /// (total and per bank) of reading [addr, addr + n), plus `patched`
  /// words added to the mem.fault_patch_words counter. Both throw
  /// std::out_of_range when the range does not fit.
  void peek_block(std::size_t addr, std::span<std::uint32_t> dst,
                  std::span<std::uint8_t> patched) const;
  void count_reads(std::size_t addr, std::size_t n,
                   std::size_t patched = 0) const;

  /// Bits as physically stored (after stuck-at application), for tests.
  [[nodiscard]] std::uint32_t peek_physical(std::size_t addr) const;

  void fill(std::uint32_t bits);

  [[nodiscard]] const AccessStats& stats() const noexcept { return stats_; }
  void reset_stats();

 private:
  /// Shared bodies of the 32/16-bit block overloads (memory.cpp).
  /// gather_impl moves the fault-applied bits only and returns how many
  /// words a fault entry patched (flagged in `patched_at` when non-null);
  /// add_bank_counts adds the per-bank counts of the range to `counts`;
  /// add_read_stats is count_reads without the range check.
  template <typename Word>
  void write_block_impl(std::size_t addr, const Word* src, std::size_t n);
  template <typename Word>
  std::size_t gather_impl(std::size_t addr, Word* dst, std::size_t n,
                          std::uint8_t* patched_at) const;
  void add_bank_counts(std::uint64_t* counts, std::size_t addr,
                       std::size_t n) const;
  void add_read_stats(std::size_t addr, std::size_t n,
                      std::size_t patched) const;
  void check_range(std::size_t addr, std::size_t n, const char* what) const;

  [[nodiscard]] std::size_t physical(std::size_t logical) const;
  [[nodiscard]] int bank_of(std::size_t phys) const noexcept {
    return static_cast<int>(phys % static_cast<std::size_t>(banks_));
  }

  int width_ = 16;
  int banks_ = MemoryGeometry::kBanks;
  std::uint32_t width_mask_ = 0xFFFFu;
  std::vector<std::uint32_t> store_;
  const FaultMap* faults_ = nullptr;
  std::uint64_t scramble_mul_ = 1;  ///< odd multiplier (identity when 1, add 0)
  std::uint64_t scramble_add_ = 0;
  mutable AccessStats stats_;
};

/// Error-free side memory (always at nominal voltage): DREAM's mask-ID and
/// sign-bit store. Narrow words (<= 16 bits).
class SafeMemory {
 public:
  SafeMemory(std::size_t words, int width_bits);

  [[nodiscard]] std::size_t words() const noexcept { return store_.size(); }
  [[nodiscard]] int width_bits() const noexcept { return width_; }

  void write(std::size_t addr, std::uint16_t bits);
  [[nodiscard]] std::uint16_t read(std::size_t addr) const;

  /// Block transfers, loop-equivalent to the word accessors (see
  /// FaultyMemory::write_block).
  void write_block(std::size_t addr, std::span<const std::uint16_t> src);
  void read_block(std::size_t addr, std::span<std::uint16_t> dst) const;
  /// The halves of read_block, as on FaultyMemory: the stored words with
  /// no stats, and the stats with no data.
  void peek_block(std::size_t addr, std::span<std::uint16_t> dst) const;
  void count_reads(std::size_t addr, std::size_t n) const;

  [[nodiscard]] const AccessStats& stats() const noexcept { return stats_; }
  void reset_stats();

 private:
  void check_range(std::size_t addr, std::size_t n, const char* what) const;

  int width_;
  std::uint16_t width_mask_;
  std::vector<std::uint16_t> store_;
  mutable AccessStats stats_;
};

}  // namespace ulpdream::mem
