// Surrogate-accelerated border search (src/analysis/surrogate):
// root-search behaviour on synthetic margin curves (crossing location,
// probe economy, fallback semantics), agreement of analyze_defect with the
// classic scan+bisection on every Table-1 defect and at a hot corner, the
// retired campaign "surrogate" block, and thread-count determinism of a
// campaign.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/border.hpp"
#include "analysis/surrogate.hpp"
#include "campaign/runner.hpp"
#include "defect/defect.hpp"
#include "dram/column.hpp"
#include "dram/column_sim.hpp"
#include "dram/technology.hpp"
#include "obs/metrics.hpp"
#include "stress/stress.hpp"
#include "test_dirs.hpp"
#include "util/json.hpp"
#include "verify/diagnostic.hpp"

namespace dramstress {
namespace {

namespace fs = std::filesystem;
using analysis::BorderOptions;
using analysis::BorderResult;
using analysis::MarginProbe;
using analysis::SurrogateSearchResult;
using defect::DefectKind;
using defect::SweepRange;

// --- synthetic root search ----------------------------------------------

constexpr SweepRange kRange{1e3, 1e9};

/// ln-R of the synthetic crossing used below.
const double kX0 = std::log(1e6);

TEST(SurrogateRootSearchTest, FindsMonotoneSeriesCrossing) {
  // Series-shaped analog margin: linear in ln R, crossing at 1 MOhm.
  long evals = 0;
  const MarginProbe probe = [&](double r) {
    ++evals;
    return 0.8 * (kX0 - std::log(r));
  };
  const BorderOptions opt;
  const SurrogateSearchResult sr = analysis::surrogate_root_search(
      probe, kRange, /*series=*/true, std::log(2e5), opt);
  ASSERT_TRUE(sr.br.has_value());
  EXPECT_FALSE(sr.fell_back());
  EXPECT_FALSE(sr.fails_everywhere);
  // The bracket tolerance is opt.log_tol in ln R; allow twice that.
  EXPECT_NEAR(std::log(*sr.br), kX0, 2.0 * opt.log_tol);
  // An analog margin must cost far fewer probes than the classic
  // scan+bisection budget (9 scan points plus ~6 bisections).
  EXPECT_LE(evals, 10);
  ASSERT_TRUE(sr.crossing_slope.has_value());
  EXPECT_LT(*sr.crossing_slope, 0.0);
}

TEST(SurrogateRootSearchTest, FindsMonotoneShuntCrossing) {
  const MarginProbe probe = [&](double r) {
    return 0.8 * (std::log(r) - kX0);
  };
  const BorderOptions opt;
  const SurrogateSearchResult sr = analysis::surrogate_root_search(
      probe, kRange, /*series=*/false, std::log(4e6), opt);
  ASSERT_TRUE(sr.br.has_value());
  EXPECT_FALSE(sr.fell_back());
  EXPECT_NEAR(std::log(*sr.br), kX0, 2.0 * opt.log_tol);
  ASSERT_TRUE(sr.crossing_slope.has_value());
  EXPECT_GT(*sr.crossing_slope, 0.0);
}

TEST(SurrogateRootSearchTest, RangeWideVerdictsMatchClassicSemantics) {
  const BorderOptions opt;
  // Never fails: br stays empty, no fallback.
  const SurrogateSearchResult never = analysis::surrogate_root_search(
      [](double) { return 0.5; }, kRange, /*series=*/true, kX0, opt);
  EXPECT_FALSE(never.br.has_value());
  EXPECT_FALSE(never.fails_everywhere);
  EXPECT_FALSE(never.fell_back());
  // Fails everywhere: br pins the failing extreme, like the classic scan.
  const SurrogateSearchResult always = analysis::surrogate_root_search(
      [](double) { return -0.5; }, kRange, /*series=*/true, kX0, opt);
  ASSERT_TRUE(always.br.has_value());
  EXPECT_TRUE(always.fails_everywhere);
  EXPECT_DOUBLE_EQ(*always.br, kRange.lo);
}

TEST(SurrogateRootSearchTest, NonMonotoneSamplesForceFallback) {
  // A margin that *rises* between the first walk samples (0.3 -> 0.4, far
  // beyond the noise allowance) before dropping off a cliff: the moment
  // the refinement loop fits the samples it must detect the shape
  // violation and hand the sign-verified bracket back for classic
  // bisection instead of trusting a surrogate through it.
  const double x_start = kX0;  // walk starts here, passing
  const MarginProbe probe = [&](double r) {
    const double x = std::log(r);
    if (x <= x_start + 0.01) return 0.3;
    if (x < x_start + 1.0) return 0.4;
    return -1.0;
  };
  const BorderOptions opt;
  const SurrogateSearchResult sr = analysis::surrogate_root_search(
      probe, kRange, /*series=*/true, x_start, opt);
  EXPECT_TRUE(sr.fell_back());
  EXPECT_EQ(sr.give_up, SurrogateSearchResult::GiveUp::Shape);
  ASSERT_TRUE(sr.bracket_lo.has_value());
  ASSERT_TRUE(sr.bracket_hi.has_value());
  // The bracket straddles the real flip at x_start + 1.0.
  EXPECT_LT(std::log(*sr.bracket_lo), x_start + 1.0);
  EXPECT_GE(std::log(*sr.bracket_hi), x_start + 1.0);
}

TEST(SurrogateRootSearchTest, ProbeBudgetExhaustionFallsBack) {
  BorderOptions opt;
  opt.surrogate.max_probes = 3;
  // Crossing sits many hops away from the prior; three probes cannot
  // reach it.
  const SurrogateSearchResult sr = analysis::surrogate_root_search(
      [&](double r) { return 0.8 * (kX0 - std::log(r)); }, kRange,
      /*series=*/true, std::log(kRange.lo), opt);
  EXPECT_TRUE(sr.fell_back());
  EXPECT_EQ(sr.give_up, SurrogateSearchResult::GiveUp::Budget);
  EXPECT_FALSE(sr.br.has_value());
  EXPECT_LE(sr.probes, 3);
}

// --- agreement with the classic analyze ---------------------------------

TEST(SurrogateAnalyzeTest, AgreesWithClassicOnAllTableOneDefects) {
  const std::vector<DefectKind> kinds = {
      DefectKind::O1, DefectKind::O2, DefectKind::O3, DefectKind::Sg,
      DefectKind::Sv, DefectKind::B1, DefectKind::B2};
  dram::DramColumn column;
  dram::ColumnSimulator sim(column, stress::nominal_condition());
  long classic_total = 0;
  long surrogate_total = 0;
  for (const DefectKind k : kinds) {
    const defect::Defect d{k, dram::Side::True};
    long t0 = dram::thread_transients();
    const BorderResult cr = analysis::classic_analyze_defect(column, d, sim);
    classic_total += dram::thread_transients() - t0;

    t0 = dram::thread_transients();
    const BorderResult sr = analysis::analyze_defect(column, d, sim);
    surrogate_total += dram::thread_transients() - t0;

    // The surrogate ranks candidates but the winner is re-measured
    // classically, so the analyze output is classic-exact, not merely
    // close.
    ASSERT_EQ(cr.br.has_value(), sr.br.has_value()) << d.name();
    if (cr.br.has_value()) {
      EXPECT_DOUBLE_EQ(*cr.br, *sr.br) << d.name();
    }
    EXPECT_EQ(cr.condition.str(), sr.condition.str()) << d.name();
    EXPECT_EQ(cr.fault_at_high_r, sr.fault_at_high_r) << d.name();
  }
  // The whole point: same answers, meaningfully fewer transients.
  EXPECT_LT(surrogate_total, classic_total);
}

TEST(SurrogateAnalyzeTest, AgreesWithClassicAtHotCorner) {
  // At +87 C the 100 us retention candidates fail the healthy column, and
  // they predict the widest failing range.  Pruning must rank against the
  // best *valid* prediction: pruned against an invalid winner, every valid
  // candidate was skipped and "not detectable" re-ran the whole classic
  // analysis as a fallback.
  dram::DramColumn column;
  dram::ColumnSimulator sim(column, {2.4, 87.0, 60e-9, 0.5});
  const defect::Defect d{DefectKind::Sg, dram::Side::Comp};

  long t0 = dram::thread_transients();
  const BorderResult cr = analysis::classic_analyze_defect(column, d, sim);
  const long classic = dram::thread_transients() - t0;

  const long fallbacks = obs::metrics_snapshot().counter("surrogate.fallback");
  t0 = dram::thread_transients();
  const BorderResult sr = analysis::analyze_defect(column, d, sim);
  const long surrogate = dram::thread_transients() - t0;
  EXPECT_EQ(obs::metrics_snapshot().counter("surrogate.fallback"), fallbacks);

  ASSERT_TRUE(cr.br.has_value());
  ASSERT_TRUE(sr.br.has_value());
  EXPECT_DOUBLE_EQ(*cr.br, *sr.br);
  EXPECT_EQ(cr.condition.str(), sr.condition.str());
  EXPECT_LT(surrogate, classic);
}

// --- campaign integration ------------------------------------------------

using test::fresh_dir;

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream text;
  text << f.rdbuf();
  return text.str();
}

campaign::CampaignSpec spec_of(const std::string& text) {
  verify::VerifyReport report;
  std::optional<campaign::CampaignSpec> spec =
      campaign::parse_spec(text, &report);
  EXPECT_TRUE(spec.has_value()) << report.str();
  return spec.value();
}

std::string spec_with_surrogate_block(const std::string& block) {
  return R"({"name": "s", "defects": ["o3"], "points": [{"name": "nominal"}],
             "analyses": ["border", "optimize"], "surrogate": )" +
         block + "}";
}

TEST(SurrogateCampaignTest, SpecSurrogateBlockIsRetired) {
  // Older run directories recorded {"enabled": true, "tol": 0.02} in
  // spec.json.  That block, or any subset of it, loads as a no-op: the
  // spec no longer writes it back and plans the same unit keys as a spec
  // without it, so `campaign status|gc` and --resume keep working.
  const campaign::CampaignSpec plain = spec_of(R"({
    "name": "s", "defects": ["o3"], "points": [{"name": "nominal"}],
    "analyses": ["border", "optimize"]
  })");
  dram::DramColumn column(dram::default_technology());
  const campaign::CampaignPlan plain_plan = campaign::expand(plain, column);
  ASSERT_EQ(plain_plan.units.size(), 2u);
  for (const char* block : {R"({"enabled": true, "tol": 0.02})",
                            R"({"enabled": true})", R"({"tol": 0.02})",
                            "{}"}) {
    verify::VerifyReport report;
    const std::optional<campaign::CampaignSpec> legacy =
        campaign::parse_spec(spec_with_surrogate_block(block), &report);
    ASSERT_TRUE(legacy.has_value()) << block << report.str();
    EXPECT_TRUE(report.clean()) << block << report.str();
    EXPECT_EQ(campaign::spec_json(*legacy), campaign::spec_json(plain));
    const campaign::CampaignPlan plan = campaign::expand(*legacy, column);
    for (size_t i = 0; i < plan.units.size(); ++i)
      EXPECT_EQ(plan.units[i].key.hex(), plain_plan.units[i].key.hex());
  }
  EXPECT_EQ(campaign::spec_json(plain).find("surrogate"), std::string::npos);

  // Asking for the removed classic-only search or another tolerance would
  // silently run something else, so it is an error naming the removal.
  for (const char* block : {R"({"enabled": false})", R"({"tol": 0.05})",
                            R"({"enabled": false, "tol": 0.05})"}) {
    verify::VerifyReport report;
    EXPECT_FALSE(
        campaign::parse_spec(spec_with_surrogate_block(block), &report)
            .has_value())
        << block;
    ASSERT_TRUE(report.has(verify::Code::SpecBadValue)) << report.str();
    EXPECT_NE(report.find(verify::Code::SpecBadValue)->message.find("removed"),
              std::string::npos)
        << report.str();
    EXPECT_FALSE(report.has(verify::Code::SpecUnknownKey)) << report.str();
  }
}

TEST(SurrogateCampaignTest, ReportIsThreadCountInvariantAndCountsTransients) {
  const campaign::CampaignSpec spec = spec_of(R"({
    "name": "det",
    "defects": ["o3", "sv"],
    "points": [{"name": "nominal"}],
    "analyses": ["border"],
    "surrogate": {"enabled": true}
  })");
  const dram::TechnologyParams tech = dram::default_technology();
  dram::DramColumn column(tech);
  const campaign::CampaignPlan plan = campaign::expand(spec, column);

  campaign::RunnerOptions opt1;
  opt1.threads = 1;
  campaign::CampaignRunner one(plan, tech, fresh_dir("t1"),
                               fresh_dir("t1_cache"), opt1);
  const campaign::CampaignResult r1 = one.run();
  campaign::RunnerOptions opt4;
  opt4.threads = 4;
  campaign::CampaignRunner four(plan, tech, fresh_dir("t4"),
                                fresh_dir("t4_cache"), opt4);
  const campaign::CampaignResult r4 = four.run();

  EXPECT_EQ(r1.done, 2);
  EXPECT_EQ(r4.done, 2);
  const std::string report1 = read_file(r1.report_path);
  EXPECT_EQ(report1, read_file(r4.report_path));
  // Per-unit accounting: every computed unit reports a positive transient
  // count and the total adds up.
  const util::json::Value v = util::json::parse(report1);
  const util::json::Value* units = v.find("units");
  ASSERT_NE(units, nullptr);
  long sum = 0;
  for (const util::json::Value& u : units->array) {
    const util::json::Value* t = u.find("transients");
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->number, 0.0);
    sum += static_cast<long>(t->number);
  }
  const util::json::Value* total = v.find("transients_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(static_cast<long>(total->number), sum);
}

}  // namespace
}  // namespace dramstress
