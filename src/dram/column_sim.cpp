#include "dram/column_sim.hpp"

#include <utility>

#include "dram/ensemble_column.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dramstress::dram {

int RunResult::read_bit(size_t i) const {
  require(i < ops.size(), "RunResult: op index out of range");
  require(ops[i].bit.has_value(),
          util::format("RunResult: op %zu is not a read", i));
  return *ops[i].bit;
}

double RunResult::vc_after(size_t i) const {
  require(i < ops.size(), "RunResult: op index out of range");
  return ops[i].vc;
}

int RunResult::last_read_bit() const {
  for (size_t i = ops.size(); i-- > 0;)
    if (ops[i].bit.has_value()) return *ops[i].bit;
  throw ModelError("RunResult: sequence contains no read");
}

ColumnSimulator::ColumnSimulator(DramColumn& column, OperatingConditions cond,
                                 SimSettings settings)
    : column_(&column), cond_(cond), settings_(settings) {}

RunResult ColumnSimulator::run(const OpSequence& seq, double vc_init,
                               Side side) const {
  OBS_SPAN("column.run");
  EnsembleColumnSim one({this});
  std::vector<RunResult> r = one.run_lanes(seq, side, {vc_init}, {},
                                           /*early_stop=*/false,
                                           /*lte_scale=*/1.0,
                                           /*probes=*/true);
  return std::move(r[0]);
}

RunResult ColumnSimulator::run_samples(const OpSequence& seq, double vc_init,
                                       Side side) const {
  // Every advance up to the last sample is the one `run` makes, so the
  // samples are bit-identical; early_stop only skips the unobserved tail.
  EnsembleColumnSim one({this});
  std::vector<RunResult> r = one.run_batch(seq, side, {vc_init}, {},
                                           /*early_stop=*/true,
                                           /*lte_scale=*/1.0);
  return std::move(r[0]);
}

int ColumnSimulator::read_of_initial(double vc_init, Side side) const {
  return run_samples({Operation::r()}, vc_init, side).read_bit(0);
}

}  // namespace dramstress::dram
