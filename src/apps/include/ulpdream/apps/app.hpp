#pragma once
// The application abstraction the experiments iterate over: the paper's
// five ECG case studies (Sec. II). Each app runs entirely against a
// MemorySystem — input, intermediate and output buffers are allocated in
// the (possibly faulty) data memory, so every sample the algorithm touches
// traverses the EMT codec and fault-injection path, exactly as in the
// paper's instrumented VirtualSOC platform. An app is identified by its
// registered name alone (see app_registry() below).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ulpdream/core/protected_buffer.hpp"
#include "ulpdream/ecg/generator.hpp"
#include "ulpdream/util/registry.hpp"

namespace ulpdream::apps {

class BioApp {
 public:
  virtual ~BioApp() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of input samples consumed from the record.
  [[nodiscard]] virtual std::size_t input_length() const = 0;

  /// Words of data memory the app allocates (input + intermediates +
  /// output); must fit the 32 kB device memory.
  [[nodiscard]] virtual std::size_t footprint_words() const = 0;

  /// Executes the application. The system's allocator is reset first so
  /// repeated runs reuse the same addresses (and hence the same fault
  /// cells — required for the paper's same-map EMT comparisons).
  /// Returns the numeric output vector the SNR metric is computed on.
  [[nodiscard]] virtual std::vector<double> run(
      core::MemorySystem& system, const ecg::Record& record) const = 0;

  /// Double-precision golden model of the application — the x_theo of
  /// Formula 1. Computing the reference at full precision is what gives
  /// each application a *finite* maximum SNR under 16-bit fixed point
  /// (Fig. 4's dashed lines), and for CS it exposes the lossy-compression
  /// ceiling the paper highlights. Returns nullopt when no float model
  /// exists (delineation); the experiment runner then uses the error-free
  /// fixed-point run as the reference.
  [[nodiscard]] virtual std::optional<std::vector<double>> ideal_output(
      const ecg::Record& record) const {
    (void)record;
    return std::nullopt;
  }
};

/// Record load / output readback on the batched data path, shared by the
/// apps' run() implementations: whole sample windows move through one
/// ProtectedBuffer block call instead of a word-at-a-time loop.
void load_input(core::ProtectedBuffer& buf, const fixed::SampleVec& samples,
                std::size_t n);
[[nodiscard]] std::vector<double> read_output_f64(
    const core::ProtectedBuffer& buf, std::size_t n);

/// The process-wide application registry. Built-ins (the paper's five
/// case studies plus the heartbeat-classifier extension) register on
/// first access, in presentation order; register_factory() adds user
/// applications, selectable by name everywhere a built-in is.
[[nodiscard]] util::Registry<BioApp>& app_registry();

/// Instantiates the app registered under `name`. Throws
/// std::invalid_argument listing the valid names on an unknown name.
[[nodiscard]] std::unique_ptr<BioApp> make_app(const std::string& name);

/// Registered names: the paper's five case studies, and every registered
/// name (built-ins first, then user registrations).
[[nodiscard]] std::vector<std::string> paper_app_names();
[[nodiscard]] std::vector<std::string> app_names();

}  // namespace ulpdream::apps
