// Registry-based extension API: the Registry<T> template, the built-in
// component registrations, the Scenario facade,
// and — the acceptance test of the redesign — a user-defined EMT
// registered *in this test binary* (outside src/) running through the
// campaign engine by name with the engine's determinism guarantees intact.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <ulpdream/ulpdream.hpp>

namespace ulpdream {
namespace {

// ---------------------------------------------------------------------------
// Registry<T> mechanics on a local registry (no global state involved).

struct Widget {
  virtual ~Widget() = default;
  [[nodiscard]] virtual int value() const = 0;
};

struct FortyTwo final : Widget {
  [[nodiscard]] int value() const override { return 42; }
};

TEST(Registry, CreateAndNamesFollowRegistrationOrder) {
  Registry<Widget> reg("widget");
  reg.register_factory("a", [] { return std::make_unique<FortyTwo>(); });
  reg.register_factory("b", [] { return std::make_unique<FortyTwo>(); });
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.contains("a"));
  EXPECT_FALSE(reg.contains("c"));
  EXPECT_EQ(reg.create("a")->value(), 42);
}

TEST(Registry, DuplicateRegistrationThrows) {
  Registry<Widget> reg("widget");
  reg.register_factory("a", [] { return std::make_unique<FortyTwo>(); });
  try {
    reg.register_factory("a", [] { return std::make_unique<FortyTwo>(); });
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "duplicate widget registration: 'a'");
  }
}

TEST(Registry, UnknownNameErrorListsValidNames) {
  Registry<Widget> reg("widget");
  reg.register_factory("a", [] { return std::make_unique<FortyTwo>(); });
  reg.register_factory("b", [] { return std::make_unique<FortyTwo>(); });
  try {
    (void)reg.create("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown widget: nope (valid: a b)");
  }
  EXPECT_THROW((void)reg.descriptor("nope"), std::invalid_argument);
}

TEST(Registry, RejectsEmptyNameAndNullFactory) {
  Registry<Widget> reg("widget");
  EXPECT_THROW(
      reg.register_factory("", [] { return std::make_unique<FortyTwo>(); }),
      std::invalid_argument);
  EXPECT_THROW(reg.register_factory("a", nullptr), std::invalid_argument);
}

TEST(Registry, DescriptorCarriesMetadataAndCapabilities) {
  Registry<Widget> reg("widget");
  reg.register_factory(
      "a", [] { return std::make_unique<FortyTwo>(); },
      {"The Answer", "answers everything", {"deep-thought", "paper"}});
  const Descriptor d = reg.descriptor("a");
  EXPECT_EQ(d.display_name, "The Answer");
  EXPECT_EQ(d.doc, "answers everything");
  EXPECT_TRUE(d.has_capability("deep-thought"));
  EXPECT_FALSE(d.has_capability("babel-fish"));
  EXPECT_EQ(reg.names_with("paper"), (std::vector<std::string>{"a"}));
}

// ---------------------------------------------------------------------------
// Built-in registrations.

TEST(ComponentRegistries, BuiltInsEnumerateInPresentationOrder) {
  // >= because other tests in this binary may register extra components.
  EXPECT_GE(core::emt_names().size(), 4u);
  EXPECT_EQ(core::paper_emt_names(),
            (std::vector<std::string>{"none", "dream", "ecc_secded"}));
  EXPECT_EQ(apps::paper_app_names(),
            (std::vector<std::string>{"dwt", "matrix_filter", "cs",
                                      "morph_filter", "delineation"}));
  EXPECT_GE(apps::app_names().size(), 6u);
  EXPECT_EQ(mem::ber_model_names().front(), "log-linear");
  EXPECT_TRUE(mem::ber_model_registry().contains("probit"));
}

TEST(ComponentRegistries, CapabilitiesClassifyTiers) {
  EXPECT_TRUE(core::emt_registry().descriptor("dream").has_capability(
      core::kCapCorrectsErrors));
  EXPECT_FALSE(core::emt_registry().descriptor("none").has_capability(
      core::kCapCorrectsErrors));
  EXPECT_TRUE(core::emt_registry().descriptor("dream_secded").has_capability(
      core::kCapExtendedTier));
  EXPECT_TRUE(apps::app_registry()
                  .descriptor("heartbeat_classifier")
                  .has_capability(core::kCapExtendedTier));
}

TEST(ComponentRegistries, MakeEmtUnknownNameListsRegisteredNames) {
  try {
    (void)core::make_emt("raid5");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown EMT: raid5"), std::string::npos) << what;
    EXPECT_NE(what.find("none"), std::string::npos) << what;
    EXPECT_NE(what.find("dream_secded"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// A user-defined EMT registered outside src/ — through the whole stack.

/// Inverts every bit of the payload (stored complemented). Corrects
/// nothing, but its decode differs from "none" whenever a stuck-at fault
/// lands, which makes mix-ups with built-ins detectable in results.
class InvertedStore final : public core::Emt {
 public:
  [[nodiscard]] std::string name() const override { return "inverted"; }
  [[nodiscard]] int payload_bits() const override {
    return fixed::kSampleBits;
  }
  [[nodiscard]] int safe_bits() const override { return 0; }
  [[nodiscard]] std::uint32_t encode_payload(
      fixed::Sample s) const override {
    return static_cast<std::uint16_t>(~static_cast<std::uint16_t>(s));
  }
  [[nodiscard]] std::uint16_t encode_safe(fixed::Sample) const override {
    return 0;
  }
  [[nodiscard]] fixed::Sample decode(
      std::uint32_t payload, std::uint16_t,
      core::CodecCounters* counters = nullptr) const override {
    if (counters != nullptr) ++counters->decodes;
    return static_cast<fixed::Sample>(
        static_cast<std::uint16_t>(~static_cast<std::uint16_t>(payload)));
  }
};

bool register_inverted_once() {
  static const bool done = [] {
    core::emt_registry().register_factory(
        "inverted", [] { return std::make_unique<InvertedStore>(); },
        {"Inverted store", "stores samples complemented (test technique)",
         {"custom"}});
    return true;
  }();
  return done;
}

/// True when `names` begins with `prefix`, element for element.
bool starts_with(const std::vector<std::string>& names,
                 const std::vector<std::string>& prefix) {
  return names.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), names.begin());
}

TEST(ComponentRegistries, BuiltInsStayFirstAfterUserRegistrations) {
  // Every registry lists its built-ins first, in presentation order,
  // whatever users register later.
  ASSERT_TRUE(register_inverted_once());
  EXPECT_TRUE(starts_with(
      core::emt_names(), {"none", "dream", "ecc_secded", "dream_secded"}));
  EXPECT_TRUE(starts_with(apps::app_names(),
                          {"dwt", "matrix_filter", "cs", "morph_filter",
                           "delineation", "heartbeat_classifier"}));
  EXPECT_TRUE(starts_with(mem::ber_model_names(), {"log-linear", "probit"}));
}

TEST(CustomEmt, RegistersAndParsesLikeABuiltIn) {
  ASSERT_TRUE(register_inverted_once());
  EXPECT_TRUE(core::emt_registry().contains("inverted"));
  EXPECT_EQ(core::make_emt("inverted")->name(), "inverted");
  // Axis parsers accept it by name, and "all" includes it.
  const auto parsed = campaign::parse_emt_list("none,inverted");
  EXPECT_EQ(parsed, (std::vector<std::string>{"none", "inverted"}));
  bool in_all = false;
  for (const std::string& name : campaign::parse_emt_list("all")) {
    in_all = in_all || name == "inverted";
  }
  EXPECT_TRUE(in_all);
  // The paper tier is untouched.
  EXPECT_EQ(core::paper_emt_names().size(), 3u);
}

TEST(CustomEmt, RunsThroughCampaignEngineDeterministically) {
  ASSERT_TRUE(register_inverted_once());
  campaign::CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = {"none", "inverted"};
  spec.voltages = {0.6, 0.9};
  spec.records = {campaign::RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7}};
  spec.repetitions = 2;
  spec = spec.normalized();

  const campaign::CampaignEngine serial(energy::SystemEnergyModel(), 1);
  const auto baseline = serial.run(spec).aggregate();
  ASSERT_EQ(baseline.size(), 2u * 2u);
  for (const unsigned threads : {3u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const campaign::CampaignEngine engine(energy::SystemEnergyModel(),
                                          threads);
    const auto rows = engine.run(spec).aggregate();
    ASSERT_EQ(rows.size(), baseline.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].emt, baseline[i].emt);
      EXPECT_EQ(rows[i].snr_mean_db, baseline[i].snr_mean_db);
      EXPECT_EQ(rows[i].energy_mean_j, baseline[i].energy_mean_j);
      EXPECT_EQ(rows[i].corrected_mean, baseline[i].corrected_mean);
    }
  }

  // At nominal voltage (error-free) the inverted store round-trips
  // exactly, so it matches the unprotected SNR; the aggregation keyed it
  // under its own name.
  double none_09 = 0.0;
  double inverted_09 = 1.0;
  for (const auto& row : baseline) {
    if (row.voltage != 0.9) continue;
    if (row.emt == "none") none_09 = row.snr_mean_db;
    if (row.emt == "inverted") inverted_09 = row.snr_mean_db;
  }
  EXPECT_EQ(none_09, inverted_09);
}

/// 24-bit payload (wider than ECC's 22): the data word plus the top byte
/// duplicated in bits 16..23. Decode ignores the copy — the point is the
/// payload *width*, which the fault-map generation must accommodate.
class WidePayload final : public core::Emt {
 public:
  [[nodiscard]] std::string name() const override { return "wide24"; }
  [[nodiscard]] int payload_bits() const override { return 24; }
  [[nodiscard]] int safe_bits() const override { return 0; }
  [[nodiscard]] std::uint32_t encode_payload(
      fixed::Sample s) const override {
    const auto u = static_cast<std::uint16_t>(s);
    return u | (static_cast<std::uint32_t>(u >> 8) << 16);
  }
  [[nodiscard]] std::uint16_t encode_safe(fixed::Sample) const override {
    return 0;
  }
  [[nodiscard]] fixed::Sample decode(
      std::uint32_t payload, std::uint16_t,
      core::CodecCounters* counters = nullptr) const override {
    if (counters != nullptr) ++counters->decodes;
    return static_cast<fixed::Sample>(static_cast<std::uint16_t>(payload));
  }
};

TEST(CustomEmt, WiderThanEccPayloadWidensTheFaultMap) {
  static const bool registered = [] {
    core::emt_registry().register_factory(
        "wide24", [] { return std::make_unique<WidePayload>(); },
        {"Wide payload", "24-bit payload (test technique)", {"custom"}});
    return true;
  }();
  ASSERT_TRUE(registered);
  // Regression: the engine/sweeps used to hardcode the map width to ECC's
  // 22 bits, so any registered EMT with a wider payload threw mid-run.
  const auto rows = Scenario()
                        .app("dwt")
                        .emt("none")
                        .emt("wide24")
                        .voltage(0.8)
                        .repetitions(2)
                        .threads(2)
                        .run_rows();
  ASSERT_EQ(rows.size(), 2u);
  for (const AggregateRow& row : rows) {
    EXPECT_TRUE(std::isfinite(row.snr_mean_db));
  }
}

// ---------------------------------------------------------------------------
// Scenario facade.

TEST(Scenario, HappyPathRunsATinyGrid) {
  const auto rows = Scenario()
                        .app("dwt")
                        .emt("none")
                        .emt("dream")
                        .voltage(0.7)
                        .voltage(0.9)
                        .record(ecg::Pathology::kNormalSinus, 1.0, 7)
                        .repetitions(2)
                        .threads(2)
                        .run_rows();
  ASSERT_EQ(rows.size(), 2u * 2u);  // emts x voltages
  for (const AggregateRow& row : rows) {
    EXPECT_EQ(row.app, "dwt");
    EXPECT_EQ(row.n, 2u);
    EXPECT_TRUE(std::isfinite(row.snr_mean_db));
    EXPECT_GT(row.energy_mean_j, 0.0);
  }
}

TEST(Scenario, DefaultsToThePaperGrid) {
  const campaign::CampaignSpec spec = Scenario().build_spec();
  EXPECT_EQ(spec.apps, apps::paper_app_names());
  EXPECT_EQ(spec.emts, core::paper_emt_names());
  EXPECT_EQ(spec.voltages.size(), 9u);
  EXPECT_EQ(spec.ber_model, "log-linear");
}

TEST(Scenario, UnknownNamesFailAtBuildTimeListingValidNames) {
  EXPECT_THROW((void)Scenario().app("fft").build_spec(),
               std::invalid_argument);
  EXPECT_THROW((void)Scenario().ber_model("weibull").build_spec(),
               std::invalid_argument);
  try {
    (void)Scenario().emt("raid5").build_spec();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("valid:"), std::string::npos);
  }
}

TEST(Scenario, PolicyRangesAreIndependentOfEmtListOrder) {
  // The triggering-range ladder is derived from the voltage floors, not
  // from the order the config happened to list the EMTs.
  const auto sweep_for = [](std::vector<std::string> emts) {
    campaign::CampaignSpec spec;
    spec.apps = {"dwt"};
    spec.emts = std::move(emts);
    spec.voltages = {0.6, 0.7, 0.8, 0.9};
    spec.records = {
        campaign::RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7}};
    spec.repetitions = 4;
    const campaign::CampaignEngine engine(energy::SystemEnergyModel(), 2);
    return engine.run(spec.normalized()).to_sweep_result(0, 0);
  };
  const sim::PolicyResult forward =
      sim::explore_policy(sweep_for({"none", "dream", "ecc_secded"}), 1.0);
  const sim::PolicyResult reversed =
      sim::explore_policy(sweep_for({"ecc_secded", "dream", "none"}), 1.0);
  ASSERT_EQ(forward.policy.ranges().size(), reversed.policy.ranges().size());
  for (std::size_t i = 0; i < forward.policy.ranges().size(); ++i) {
    EXPECT_EQ(forward.policy.ranges()[i].emt,
              reversed.policy.ranges()[i].emt);
    EXPECT_EQ(forward.policy.ranges()[i].v_low,
              reversed.policy.ranges()[i].v_low);
    EXPECT_EQ(forward.policy.ranges()[i].v_high,
              reversed.policy.ranges()[i].v_high);
  }
}

TEST(Scenario, PolicyTopBandBelongsToNoneEvenAgainstHigherFloors) {
  // A technique feasible only near nominal voltage must not own the top
  // band when unprotected operation suffices there.
  sim::SweepResult sweep;
  sweep.config.voltages = {0.85, 0.9};
  sweep.config.emts = {"none", "lossy"};
  sweep.max_snr_db = 60.0;
  const auto point = [](const char* emt, double v, double snr, double e) {
    sim::SweepPoint p;
    p.emt = emt;
    p.voltage = v;
    p.snr_mean_db = snr;
    p.energy_mean_j = e;
    return p;
  };
  sweep.points = {point("none", 0.9, 60.0, 1.0),
                  point("none", 0.85, 59.5, 0.9),
                  point("lossy", 0.9, 59.2, 2.0),
                  point("lossy", 0.85, 50.0, 1.8)};
  const sim::PolicyResult policy = sim::explore_policy(sweep, 1.0);
  ASSERT_FALSE(policy.policy.ranges().empty());
  EXPECT_EQ(policy.policy.ranges().back().emt, "none");
  EXPECT_EQ(policy.policy.select(0.95), "none");
}

TEST(Scenario, BridgesToSweepAndPolicyExplorer) {
  const campaign::ResultStore store = Scenario()
                                          .app("dwt")
                                          .voltages(0.6, 0.9, 0.1)
                                          .repetitions(3)
                                          .threads(2)
                                          .run();
  const sim::SweepResult sweep = store.to_sweep_result(0, 0);
  EXPECT_EQ(sweep.points.size(), 4u * 3u);
  const sim::PolicyResult policy = sim::explore_policy(sweep, 1.0);
  EXPECT_EQ(policy.points.size(), 3u);
  EXPECT_GT(policy.nominal_energy_j, 0.0);
}

}  // namespace
}  // namespace ulpdream
