#include "core/flow.hpp"

#include <sstream>

#include "obs/span.hpp"

#include "util/strings.hpp"
#include "verify/netlist_lint.hpp"
#include "verify/preflight.hpp"

namespace dramstress::core {

using analysis::BorderResult;
using defect::Defect;
using stress::AxisDecision;
using stress::DecisionMethod;
using stress::OptimizationResult;
using stress::StressAxis;

namespace {

std::string direction_marker(const AxisDecision& d) {
  std::string dir = d.direction();
  if (dir == "decrease") dir = "dec";
  if (dir == "increase") dir = "inc";
  if (d.method == DecisionMethod::BorderComparison) dir += "*";
  return dir;
}

std::string br_text(const std::optional<double>& br, bool fails_everywhere) {
  if (!br.has_value()) return "none";
  std::string s = dramstress::util::eng(*br, "Ohm");
  if (fails_everywhere) s += "!";
  return s;
}

}  // namespace

std::string Table1::render() const {
  std::ostringstream out;
  out << "ST optimization results (cf. paper Table 1); nominal "
      << stress::describe(nominal) << "\n";
  out << "  ('*' = direction decided by border-resistance comparison)\n";
  const char* fmt = "%-10s | %-11s | %-4s %-4s %-4s %-4s | %-11s | %s\n";
  out << util::format(fmt, "Defect", "Nom. border", "tcyc", "duty", "T",
                      "Vdd", "Str. border", "Str. detection condition");
  out << std::string(100, '-') << '\n';
  for (const Table1Row& row : rows) {
    out << util::format(fmt, row.defect.name().c_str(),
                        br_text(row.nominal_br, false).c_str(),
                        row.dir_tcyc.c_str(), row.dir_duty.c_str(),
                        row.dir_temp.c_str(), row.dir_vdd.c_str(),
                        br_text(row.stressed_br, false).c_str(),
                        row.stressed_condition.c_str());
  }
  return out.str();
}

StressFlow::StressFlow()
    : tech_(dram::default_technology()),
      column_(tech_),
      nominal_(stress::nominal_condition()),
      options_() {}

StressFlow::StressFlow(const dram::TechnologyParams& tech,
                       const stress::StressCondition& nominal,
                       const stress::OptimizerOptions& options)
    : tech_(tech), column_(tech), nominal_(nominal), options_(options) {}

verify::VerifyReport StressFlow::verify() {
  verify::VerifyReport report = column_.verify();
  for (const Defect& d : defect::extended_defect_set()) {
    const auto [seg_a, seg_b] = defect::expected_terminals(column_, d);
    report.merge(verify::lint_injection(column_.netlist(), d.device_name(),
                                        seg_a, seg_b));
  }
  // Numeric pre-flight (E4xx) under the stepping configuration the flow
  // will actually run with, so --verify=strict vouches for the settings
  // pair (deck, SimSettings), not the deck alone.
  const dram::SimSettings& s = options_.settings;
  verify::PreflightOptions pre;
  pre.dt_min = s.dt_min;
  pre.lte_tol = s.lte_tol;
  pre.integrator = s.integrator;
  report.merge(verify::preflight_numeric(column_.netlist(), pre));
  return report;
}

BorderResult StressFlow::analyze(const Defect& d) {
  OBS_SPAN("flow.analyze");
  dram::ColumnSimulator sim(column_, nominal_, options_.settings);
  return analysis::analyze_defect(column_, d, sim, options_.border);
}

BorderResult StressFlow::analyze_at(const Defect& d,
                                    const stress::StressCondition& sc) {
  OBS_SPAN("flow.analyze");
  dram::ColumnSimulator sim(column_, sc, options_.settings);
  return analysis::analyze_defect(column_, d, sim, options_.border);
}

OptimizationResult StressFlow::optimize(const Defect& d) {
  OBS_SPAN("flow.optimize");
  return stress::optimize_stresses(column_, d, nominal_, options_);
}

BorderResult StressFlow::mirrored_border(
    const Defect& comp_defect,
    const analysis::DetectionCondition& true_condition,
    const stress::StressCondition& sc, std::optional<double> hint,
    std::optional<double> slope) {
  dram::ColumnSimulator sim(column_, sc, options_.settings);
  const auto range = defect::default_sweep_range(comp_defect.kind);
  analysis::BorderOptions bopt = options_.border;
  bopt.bracket_hint = hint;
  bopt.margin_slope_hint = slope;
  return analysis::find_border_resistance(
      column_, comp_defect, sim, stress::mirror_condition(true_condition),
      range, bopt);
}

Table1 StressFlow::table1(const std::vector<defect::DefectKind>& kinds) {
  OBS_SPAN("flow.table1");
  Table1 table;
  table.nominal = nominal_;
  for (defect::DefectKind kind : kinds) {
    const Defect dt{kind, dram::Side::True};
    OptimizationResult r = optimize(dt);

    Table1Row row;
    row.defect = dt;
    row.nominal_br = r.nominal_border.br;
    row.stressed_br = r.stressed_border.br;
    row.nominal_condition = r.nominal_border.condition.str();
    row.stressed_condition = r.stressed_border.condition.str();
    for (const AxisDecision& d : r.decisions) {
      const std::string marker = direction_marker(d);
      switch (d.axis) {
        case StressAxis::CycleTime: row.dir_tcyc = marker; break;
        case StressAxis::DutyCycle: row.dir_duty = marker; break;
        case StressAxis::Temperature: row.dir_temp = marker; break;
        case StressAxis::SupplyVoltage: row.dir_vdd = marker; break;
      }
    }
    row.gain_decades = r.coverage_gain_decades();
    table.rows.push_back(row);

    // Comp-side row: mirrored conditions, same stressed corner.
    const Defect dc{kind, dram::Side::Comp};
    Table1Row comp = row;
    comp.defect = dc;
    const BorderResult nom_c =
        mirrored_border(dc, r.nominal_border.condition, nominal_,
                        r.nominal_border.br, r.nominal_border.margin_slope);
    const BorderResult str_c =
        mirrored_border(dc, r.stressed_border.condition, r.stressed_sc,
                        r.stressed_border.br, r.stressed_border.margin_slope);
    comp.nominal_br = nom_c.br;
    comp.stressed_br = str_c.br;
    comp.nominal_condition =
        stress::mirror_condition(r.nominal_border.condition).str();
    comp.stressed_condition =
        stress::mirror_condition(r.stressed_border.condition).str();
    const auto range = defect::default_sweep_range(kind);
    comp.gain_decades =
        str_c.failing_decades(range) - nom_c.failing_decades(range);
    table.rows.push_back(comp);
  }
  return table;
}

}  // namespace dramstress::core
