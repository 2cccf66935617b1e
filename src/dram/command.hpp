// Memory operations and the command/timing compiler.
//
// Each operation (w0, w1, r) occupies one full clock cycle, as in the
// paper: an active window of duty*tcyc during which the wordline is open,
// followed by a precharge window.  A sequence therefore directly inherits
// the two timing stresses: shrinking tcyc shortens the time a write has to
// charge/discharge the cell through a defect, and the duty cycle moves the
// boundary between active and precharge time.
#pragma once

#include <string>
#include <vector>

#include "dram/column.hpp"

namespace dramstress::dram {

/// Operating corner: the four stresses of the paper.
struct OperatingConditions {
  double vdd = 2.4;      // V
  double temp_c = 27.0;  // degrees Celsius
  double tcyc = 60e-9;   // s, clock cycle time
  double duty = 0.5;     // active fraction of the cycle

  double kelvin() const;
  bool operator==(const OperatingConditions&) const = default;
};

enum class OpKind { W0, W1, R, Del };

const char* to_string(OpKind kind);

struct Operation {
  OpKind kind = OpKind::R;
  double del_seconds = 0.0;  // only for Del
  /// Operate on the neighbouring cell (same bitline, next wordline)
  /// instead of the addressed one: the aggressor accesses that coupling
  /// defects (e.g. a bridge between adjacent storage nodes) need.
  bool neighbor = false;

  static Operation w0() { return {OpKind::W0, 0.0, false}; }
  static Operation w1() { return {OpKind::W1, 0.0, false}; }
  static Operation r() { return {OpKind::R, 0.0, false}; }
  static Operation del(double seconds) { return {OpKind::Del, seconds, false}; }
  static Operation nw0() { return {OpKind::W0, 0.0, true}; }
  static Operation nw1() { return {OpKind::W1, 0.0, true}; }
  static Operation nr() { return {OpKind::R, 0.0, true}; }

  bool operator==(const Operation&) const = default;
};

using OpSequence = std::vector<Operation>;

/// Render e.g. "w1 w1 w0 r" (del shown with its duration).
std::string to_string(const OpSequence& seq);

/// Intra-cycle timing constants (relative to the cycle start).
struct CommandTiming {
  double ramp = 1e-9;         // rise/fall time of every control edge
  double sense_delay = 5e-9;  // WL rise -> SAN/SAP fire (charge sharing)
  double write_delay = 2e-9;  // WL rise -> write driver on
  double csl_delay = 6e-9;    // WL rise -> output column select on
  /// Idle (precharged) cycles before the first operation.  Models the row
  /// having been closed since the previous access; gives the storage-node
  /// junction leakage its realistic pre-read exposure window.
  int idle_cycles = 1;

  bool operator==(const CommandTiming&) const = default;
};

/// Fully scheduled sequence: source waveforms have been installed on the
/// column; the schedule tells the simulator where to sample.
struct CompiledSchedule {
  struct Sample {
    double t = 0.0;
    int op_index = 0;
    enum class Kind { ReadBit, CellVoltage } kind = Kind::CellVoltage;
  };
  struct Interval {
    double t0 = 0.0;
    double t1 = 0.0;
    bool is_del = false;   // retention phase: integrate with a coarse step
    int op_index = -1;     // index into ops; -1 for the initial precharge
  };

  double t_end = 0.0;
  OpSequence ops;
  std::vector<Sample> samples;     // sorted by time
  std::vector<Interval> intervals; // contiguous, cover [0, t_end]
};

/// Compile `seq` for the addressed cell on `side` under `cond`: installs
/// PWL waveforms on every control source of `col` (including the supply
/// rails scaled to cond.vdd) and returns the sampling schedule.
/// The sequence is preceded by one precharge window so the column is in a
/// settled precharged state before the first operation.
CompiledSchedule compile_sequence(DramColumn& col, const OperatingConditions& cond,
                                  Side side, const OpSequence& seq,
                                  const CommandTiming& timing = {});

}  // namespace dramstress::dram
