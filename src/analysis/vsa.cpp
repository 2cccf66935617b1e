#include "analysis/vsa.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/rootfind.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace dramstress::analysis {

VsaResult extract_vsa(const dram::ColumnSimulator& sim, dram::Side side,
                      const VsaOptions& opt) {
  OBS_SPAN("vsa.extract");
  const double vdd = sim.conditions().vdd;
  const int at_zero = sim.read_of_initial(0.0, side);
  const int at_vdd = sim.read_of_initial(vdd, side);

  VsaResult out;
  if (at_zero == 1 && at_vdd == 1) {
    out.kind = VsaResult::Kind::AlwaysOne;
    out.threshold = 0.0;
    return out;
  }
  if (at_zero == 0 && at_vdd == 0) {
    out.kind = VsaResult::Kind::AlwaysZero;
    out.threshold = vdd;
    return out;
  }
  // At this point the read flips somewhere in (0, vdd).  A healthy column
  // reads 0 at 0 V and 1 at vdd; an inverted pair would indicate a
  // catastrophic defect -- treat the flip boundary as the threshold either
  // way (bisection only needs the endpoints to differ).  The two reads above
  // are the endpoint verdicts: 0 V reads at_zero, vdd the opposite.
  out.kind = VsaResult::Kind::Normal;
  out.threshold =
      numeric::bisect_known_bracket(
          [&](double v) { return sim.read_of_initial(v, side) == at_zero; },
          0.0, vdd, /*lo_verdict=*/true, {.x_tol = opt.tolerance})
          .mid();
  return out;
}

namespace {

/// Per-lane search state on the dyadic grid {0, 1, ..., M}, voltage
/// v(j) = vdd * j / M.  The invariant maintained throughout: index `lo`
/// reads `az` (the bit of the low-voltage side), index `hi` reads the
/// opposite; the threshold is the midpoint of the final flip pair
/// (hi == lo + 1), a value independent of the search path.
struct LaneSearch {
  enum class Phase {
    ProbeZero,    // unseeded: classify the 0 V endpoint
    ProbeVdd,     // unseeded: classify the vdd endpoint
    GallopFirst,  // seeded: first probe at the seed's grid index
    GallopUp,     // seeded: doubling steps towards vdd
    GallopDown,   // seeded: doubling steps towards 0
    ConfirmLow,   // gallop hit vdd uniformly: check 0 before declaring Always*
    ConfirmHigh,  // gallop hit 0 with flipped polarity: check vdd
    Bisect,       // bracket [lo, hi] established, shrink it
    Done,
  };
  Phase phase = Phase::Done;
  int az = 0;    // read bit of the low-voltage side
  int lo = 0;    // highest index known to read az
  int hi = 0;    // lowest index known to read !az
  int j = 0;     // index probed this round
  int j0 = 0;    // gallop origin (from the seed)
  int step = 1;  // current gallop stride
  VsaResult result;
};

double grid_v(int j, int m, double vdd) {
  return vdd * static_cast<double>(j) / static_cast<double>(m);
}

void finish_always(LaneSearch& s, double vdd) {
  s.result.kind = s.az == 1 ? VsaResult::Kind::AlwaysOne
                            : VsaResult::Kind::AlwaysZero;
  s.result.threshold = s.az == 1 ? 0.0 : vdd;
  s.phase = LaneSearch::Phase::Done;
}

void bisect_or_finish(LaneSearch& s, int m, double vdd) {
  if (s.hi - s.lo == 1) {
    s.result.kind = VsaResult::Kind::Normal;
    s.result.threshold =
        0.5 * (grid_v(s.lo, m, vdd) + grid_v(s.hi, m, vdd));
    s.phase = LaneSearch::Phase::Done;
    return;
  }
  s.j = (s.lo + s.hi) / 2;
  s.phase = LaneSearch::Phase::Bisect;
}

void advance(LaneSearch& s, int bit, int m, double vdd) {
  using Phase = LaneSearch::Phase;
  switch (s.phase) {
    case Phase::ProbeZero:
      s.az = bit;
      s.j = m;
      s.phase = Phase::ProbeVdd;
      break;
    case Phase::ProbeVdd:
      if (bit == s.az) {
        finish_always(s, vdd);
      } else {
        s.lo = 0;
        s.hi = m;
        bisect_or_finish(s, m, vdd);
      }
      break;
    case Phase::GallopFirst:
      s.step = 1;
      if (bit == s.az) {
        s.lo = s.j0;
        s.j = std::min(s.j0 + 1, m);
        s.phase = Phase::GallopUp;
      } else {
        s.hi = s.j0;
        s.j = std::max(s.j0 - 1, 0);
        s.phase = Phase::GallopDown;
      }
      break;
    case Phase::GallopUp:
      if (bit != s.az) {
        s.hi = s.j;
        bisect_or_finish(s, m, vdd);
      } else if (s.j == m) {
        // Uniform up to vdd; the 0 V side was never probed (the seed's
        // polarity was assumed), so confirm before declaring Always*.
        s.lo = s.j;
        s.j = 0;
        s.phase = Phase::ConfirmLow;
      } else {
        s.lo = s.j;
        s.step *= 2;
        s.j = std::min(s.j0 + s.step, m);
      }
      break;
    case Phase::GallopDown:
      if (bit == s.az) {
        s.lo = s.j;
        bisect_or_finish(s, m, vdd);
      } else if (s.j == 0) {
        // The 0 V read disagrees with the seed's polarity: adopt the
        // actual low-side bit.  Every index probed so far (up to j0) reads
        // it too, so the bracket's low end is j0; the high end is unknown.
        s.az = bit;
        s.lo = s.j0;
        s.j = m;
        s.phase = Phase::ConfirmHigh;
      } else {
        s.hi = s.j;
        s.step *= 2;
        s.j = std::max(s.j0 - s.step, 0);
      }
      break;
    case Phase::ConfirmLow:
      if (bit == s.az) {
        finish_always(s, vdd);
      } else {
        // Polarity flip at the low end: with the corrected az, every index
        // probed during the gallop (j0 and above) reads the opposite bit.
        s.az = bit;
        s.lo = 0;
        s.hi = s.j0;
        bisect_or_finish(s, m, vdd);
      }
      break;
    case Phase::ConfirmHigh:
      if (bit == s.az) {
        finish_always(s, vdd);
      } else {
        s.hi = m;
        bisect_or_finish(s, m, vdd);
      }
      break;
    case Phase::Bisect:
      if (bit == s.az)
        s.lo = s.j;
      else
        s.hi = s.j;
      bisect_or_finish(s, m, vdd);
      break;
    case Phase::Done:
      break;
  }
}

}  // namespace

std::vector<VsaResult> extract_vsa_batch(dram::EnsembleColumnSim& sim,
                                         dram::Side side,
                                         const VsaOptions& opt,
                                         const std::vector<char>& active,
                                         VsaSeed* seed) {
  OBS_SPAN("vsa.extract_batch");
  const size_t nlanes = sim.num_lanes();
  std::vector<char> act = active;
  if (act.empty()) act.assign(nlanes, 1);
  require(act.size() == nlanes,
          "extract_vsa_batch: active mask size must match lane count");
  const double vdd = sim.lane(0).conditions().vdd;
  require(opt.tolerance > 0.0, "extract_vsa_batch: tolerance must be positive");

  // Dyadic grid fine enough that a flip pair's spacing is within tolerance.
  int k = 1;
  while (vdd / static_cast<double>(1 << k) > opt.tolerance && k < 20) ++k;
  const int m = 1 << k;

  std::vector<LaneSearch> st(nlanes);
  std::vector<double> vc(nlanes, 0.0);
  std::vector<char> mask(nlanes, 0);

  const auto seed_lane = [&](LaneSearch& s, int az, double threshold) {
    s.az = az;
    s.j0 = std::clamp(
        static_cast<int>(std::lround(threshold / vdd *
                                     static_cast<double>(m))),
        1, m - 1);
    s.j = s.j0;
    s.phase = LaneSearch::Phase::GallopFirst;
  };

  // Lockstep probe rounds over `subset` until every lane in it is Done.
  const auto run_rounds = [&](const std::vector<char>& subset) {
    for (;;) {
      long probing = 0;
      for (size_t l = 0; l < nlanes; ++l) {
        const bool on =
            subset[l] != 0 && st[l].phase != LaneSearch::Phase::Done;
        mask[l] = on ? 1 : 0;
        if (on) {
          vc[l] = grid_v(st[l].j, m, vdd);
          ++probing;
        }
      }
      if (probing == 0) break;
      obs::count("vsa.batch_rounds");
      obs::count("vsa.probes", probing);
      // A probe only decides a comparator bit (BT vs BC after sensing),
      // not a waveform, so its step controller can run at a loosened LTE
      // tolerance.  The scale is a fixed constant: every probe of every
      // batch size sees the same tolerance, so batch-1 and batch-N stay
      // bit-identical; the extracted threshold can move by at most one
      // grid cell relative to a full-tolerance run, which is within the
      // Vsa tolerance contract.
      constexpr double kProbeLteScale = 4.0;
      const std::vector<int> bits = sim.read_of_initial_batch(
          vc, side, mask, /*early_stop=*/true, kProbeLteScale);
      for (size_t l = 0; l < nlanes; ++l)
        if (mask[l] != 0) advance(st[l], bits[l], m, vdd);
    }
  };

  const bool seeded = seed != nullptr && seed->valid;
  if (seeded) {
    for (size_t l = 0; l < nlanes; ++l)
      if (act[l] != 0) seed_lane(st[l], seed->at_zero, seed->threshold);
    run_rounds(act);
  } else {
    // Cold batch: every lane runs the full grid search in lockstep.  A
    // pilot-lane variant (resolve lane 0 alone, gallop-seed the rest) was
    // tried and measured slower here: thresholds move by the full Vsa
    // range across a defect-R sweep -- that spread is the paper's signal
    // -- so the gallop walks nearly as far as a cold bisection while
    // serialising the pilot's rounds.  Seeding only pays across *batches*
    // (the R-continuation path above), where the seed comes from the
    // nearest neighbour of the whole previous batch.
    for (size_t l = 0; l < nlanes; ++l) {
      if (act[l] == 0) continue;
      st[l].j = 0;
      st[l].phase = LaneSearch::Phase::ProbeZero;
    }
    run_rounds(act);
  }

  std::vector<VsaResult> out(nlanes);
  for (size_t l = 0; l < nlanes; ++l) {
    if (act[l] == 0) continue;
    out[l] = st[l].result;
    if (seed != nullptr) {
      seed->valid = true;
      seed->threshold = st[l].result.threshold;
      seed->at_zero = st[l].az;
    }
  }
  return out;
}

}  // namespace dramstress::analysis
