#include "dram/column_reference.hpp"

#include "dram/ensemble_column.hpp"
#include "numeric/rootfind.hpp"

namespace dramstress::dram {

ColumnReference::ColumnReference(DramColumn& column, OperatingConditions cond,
                                 ReferenceOptions options)
    : column_(&column), cond_(cond), opt_(options) {}

RunResult ColumnReference::run(const OpSequence& seq, double vc_init,
                               Side side) const {
  DramColumn& col = *column_;
  const CompiledSchedule sched = compile_sequence(col, cond_, side, seq);

  circuit::MnaSystem sys(col.netlist(), opt_.backend);
  circuit::TransientOptions topt = opt_.transient;
  topt.temperature = cond_.kelvin();
  circuit::TransientSim sim(sys, topt);
  for (const auto& [node, v] : floating_cell_ics(col, cond_, side, vc_init))
    sim.set_initial_condition(node, v);
  sim.add_probe("bt", col.bt());
  sim.add_probe("bc", col.bc());
  sim.add_probe("vc", col.cell_node(side));

  RunResult result;
  result.ops.resize(seq.size());
  for (size_t i = 0; i < seq.size(); ++i) result.ops[i].kind = seq[i].kind;
  walk_schedule(
      sched, topt.dt, SimSettings{}.del_steps, /*early_stop=*/false,
      [&](double dt) { sim.set_dt(dt); }, [&](double t) { sim.run(t); },
      [&](const CompiledSchedule::Sample& sm) {
        OpResult& op = result.ops[static_cast<size_t>(sm.op_index)];
        if (sm.kind == CompiledSchedule::Sample::Kind::ReadBit) {
          op.sense_margin = sim.voltage(col.bt()) - sim.voltage(col.bc());
          op.bit = op.sense_margin > 0.0 ? 1 : 0;
        } else {
          op.vc = sim.voltage(col.cell_node(side));
        }
      });
  result.final_vc = sim.voltage(col.cell_node(side));
  result.trace = sim.trace();
  return result;
}

int ColumnReference::read_of_initial(double vc_init, Side side) const {
  return run({Operation::r()}, vc_init, side).read_bit(0);
}

double reference_vsa(const ColumnReference& ref, Side side, double tol) {
  const double vdd = ref.conditions().vdd;
  const int at_zero = ref.read_of_initial(0.0, side);
  if (ref.read_of_initial(vdd, side) == at_zero) return at_zero ? 0.0 : vdd;
  return numeric::bisect_predicate(
      [&](double v) { return ref.read_of_initial(v, side) == at_zero; }, 0.0,
      vdd, {.x_tol = tol});
}

}  // namespace dramstress::dram
