#include "analysis/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "numeric/interp.hpp"
#include "numeric/rootfind.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace dramstress::analysis {

using defect::Injection;
using defect::SweepRange;
using dram::OpKind;
using dram::Operation;
using dram::Side;

// --- root search -----------------------------------------------------------

namespace {

/// Slack for the shape check: adjacent real margins may wiggle against the
/// monotone direction by up to the transient engine's voltage noise floor
/// (lte_tol-scale, about a millivolt on rail-scale nodes) without meaning
/// the predicate itself is non-monotone.
constexpr double kShapeEps = 5e-3;  // V

/// The walk's maximum hop is one classic coarse-grid step (the classic
/// scan uses scan_points = 9 over the same range).  Hops never grow past
/// that: a coarser walk could leap over a failing region narrower than a
/// grid step that the classic scan *would* have caught, and the walk's
/// range-wide verdicts (never fails / fails everywhere) must stay exactly
/// as trustworthy as the classic scan's.
constexpr int kWalkDivisions = 8;

bool margin_fails(double m) { return !(m > 0.0); }

/// Insert keeping samples sorted by log_r; drop exact-duplicate abscissae
/// (re-probing the same R returns the same margin -- the sim is
/// deterministic -- and duplicate knots would break the interpolant).
void insert_sample(std::vector<MarginSample>& samples, double x, double m) {
  auto it = std::lower_bound(
      samples.begin(), samples.end(), x,
      [](const MarginSample& s, double v) { return s.log_r < v; });
  if (it != samples.end() && it->log_r == x) return;
  samples.insert(it, MarginSample{x, m});
}

/// Expected-direction monotonicity: series margins fall with R (pass at low
/// R, fail high), shunt margins rise.  Violations beyond kShapeEps mean the
/// pass/fail predicate is not the single-crossing function the surrogate
/// assumes, so the caller must fall back to classic bisection.
bool shape_ok(const std::vector<MarginSample>& samples, bool series) {
  for (size_t i = 1; i < samples.size(); ++i) {
    const double d = samples[i].margin - samples[i - 1].margin;
    if (series ? d > kShapeEps : d < -kShapeEps) return false;
  }
  return true;
}

}  // namespace

SurrogateSearchResult surrogate_root_search(const MarginProbe& probe,
                                            const SweepRange& range,
                                            bool series, double prior_log_r,
                                            const BorderOptions& opt,
                                            std::optional<double> prior_slope) {
  require(range.lo > 0.0 && range.hi > range.lo,
          "surrogate_root_search: bad sweep range");
  const double lo_x = std::log(range.lo);
  const double hi_x = std::log(range.hi);
  const double tol = opt.log_tol;
  const int max_probes = opt.surrogate.max_probes;
  SurrogateSearchResult out;
  long refine_probes = 0;

  auto sample_at = [&](double x) {
    ++out.probes;
    const double m = probe(std::exp(x));
    insert_sample(out.samples, x, m);
    return m;
  };
  using GiveUp = SurrogateSearchResult::GiveUp;
  auto give_up = [&](GiveUp why, std::optional<double> bl,
                     std::optional<double> bh) {
    out.give_up = why;
    if (bl.has_value()) out.bracket_lo = std::exp(*bl);
    if (bh.has_value()) out.bracket_hi = std::exp(*bh);
    obs::count("surrogate.refine", refine_probes);
    return out;
  };
  auto margin_at = [&](double x) {
    for (const MarginSample& s : out.samples)
      if (s.log_r == x) return s.margin;
    return 0.0;
  };
  // Series margins fall with ln R, shunt margins rise: a slope hint of the
  // wrong sign (or nonsense) is discarded rather than trusted.
  auto slope_usable = [&](double s) {
    return std::isfinite(s) && (series ? s < 0.0 : s > 0.0);
  };

  // --- walk from the prior to a sign-verified bracket ---------------------
  const double x0 = std::clamp(prior_log_r, lo_x, hi_x);
  const double m0 = sample_at(x0);
  const bool start_fails = margin_fails(m0);
  // A passing start walks toward the failing extreme (high R for series
  // defects, low R for shunts); a failing start walks toward the passing
  // extreme.  Both reduce to: walk down exactly when the start verdict
  // matches the series flag.  The predicate is monotone, so reaching the
  // extreme without a sign change is a range-wide verdict, exactly like
  // the classic full scan's.
  const double target_end = start_fails == series ? lo_x : hi_x;
  const double dir = target_end >= x0 ? 1.0 : -1.0;
  const double step_max = (hi_x - lo_x) / kWalkDivisions;
  // The hop schedule grows geometrically from tolerance scale up to one
  // classic grid step.  A warm-start prior is usually within a few
  // tolerances of the crossing, and the bracket the walk leaves behind is
  // as wide as its last hop -- small early hops mean cliff-shaped margins
  // (saturated, no analog information) get a nearly-converged bracket
  // instead of a full grid step to bisect.
  double step = std::min(tol, step_max);
  double slope = 0.0;
  bool have_slope = false;
  if (prior_slope.has_value() && slope_usable(*prior_slope)) {
    slope = *prior_slope;
    have_slope = true;
  }
  double prev_x = x0;
  double prev_m = m0;
  std::optional<double> flip_x;  // first sample whose verdict differs
  while (true) {
    if (std::abs(target_end - prev_x) < 1e-12) {
      // Extreme reached, no sign change anywhere along the walk.
      if (!start_fails) return out;  // never fails: br stays nullopt
      out.fails_everywhere = true;
      out.br = std::exp(target_end);
      return out;
    }
    if (out.probes >= max_probes)
      return give_up(GiveUp::Budget, std::nullopt, std::nullopt);
    double hop = step;
    if (have_slope) {
      // Newton step off the latest sample, overshot by 25% so a good
      // slope lands the probe just past the crossing (an instant, narrow
      // bracket) instead of asymptotically short of it.  The floor keeps
      // progress when the margin is already tiny; the cap distrusts
      // slopes extrapolated far beyond where they were measured.
      const double newton = -prev_m / slope;
      if (newton * dir > 0.0)
        hop = std::clamp(1.25 * std::abs(newton), 0.5 * tol, step);
    }
    double nx = prev_x + dir * hop;
    nx = dir > 0 ? std::min(nx, target_end) : std::max(nx, target_end);
    const double nm = sample_at(nx);
    if (margin_fails(nm) != start_fails) {
      flip_x = nx;
      break;
    }
    if (nx != prev_x) {
      // Only a secant with a meaningful margin change carries distance
      // information.  Two samples on a saturated plateau differ by solver
      // noise (~1e-4 V); dividing that by a small dx fabricates a tiny
      // slope whose Newton step then overshoots catastrophically.  A flat
      // stretch instead *invalidates* whatever slope was being carried:
      // the crossing is not where that slope said it was.
      const double secant = (nm - prev_m) / (nx - prev_x);
      if (std::abs(nm - prev_m) > kShapeEps) {
        if (slope_usable(secant)) {
          slope = secant;
          have_slope = true;
        }
      } else {
        have_slope = false;
      }
    }
    prev_x = nx;
    prev_m = nm;
    // Grow the schedule only when a full geometric hop was actually taken:
    // a Newton-sized creep step must not inflate the next fallback hop, or
    // one bad slope widens the eventual bracket by 4x.
    if (hop >= step) step = std::min(2.0 * step, step_max);
  }

  // Bracket in x order; `bl` and `bh` always carry opposite verdicts and
  // are adjacent knots of the sample set.
  double bl = std::min(prev_x, *flip_x);
  double bh = std::max(prev_x, *flip_x);
  const bool fails_at_high = series;  // verdict on the bh side of a bracket
  auto report_slope = [&]() {
    // Margins beyond ~1 V are clipped at the comparator rails; a secant
    // across two clipped samples measures the clip, not the crossing, and
    // a downstream Newton step off it creeps uselessly.  Cliff-shaped
    // crossings therefore report no slope -- the next search's plain
    // geometric walk beats a creeping one.
    constexpr double kAnalogMarginMax = 1.0;  // V
    const double ml = margin_at(bl);
    const double mh = margin_at(bh);
    if (std::min(std::abs(ml), std::abs(mh)) >= kAnalogMarginMax) return;
    const double s = (mh - ml) / (bh - bl);
    if (slope_usable(s)) out.crossing_slope = s;
  };

  // --- PCHIP refinement, probing only while the bracket is too wide -------
  while (bh - bl > tol) {
    if (!shape_ok(out.samples, series)) return give_up(GiveUp::Shape, bl, bh);
    if (out.probes >= max_probes) return give_up(GiveUp::Budget, bl, bh);

    std::vector<double> xs;
    std::vector<double> ys;
    xs.reserve(out.samples.size());
    ys.reserve(out.samples.size());
    for (const MarginSample& s : out.samples) {
      xs.push_back(s.log_r);
      ys.push_back(s.margin);
    }
    const numeric::MonotoneCubic curve(std::move(xs), std::move(ys));

    // Error-bound acceptance: the cubic's truncation scale on the bracket
    // interval, divided by the local slope, bounds how far the
    // interpolant's zero can sit from the real crossing.  Once that is
    // well inside the tolerance the crossing is located without spending
    // the remaining bisection probes.  The bound is a divided-difference
    // *estimate*, so acceptance additionally requires the bracket itself
    // to be nearly converged (<= 2 tol): even a lying bound can then put
    // the answer at most one bracket width off, classic-bisection class.
    const auto knot = std::lower_bound(curve.xs().begin(), curve.xs().end(),
                                       bl) -
                      curve.xs().begin();
    const size_t ki = static_cast<size_t>(knot);
    if (out.samples.size() >= 4 && ki + 1 < curve.size() &&
        bh - bl <= 2.0 * tol) {
      const double slope = (curve.ys()[ki + 1] - curve.ys()[ki]) / (bh - bl);
      const double bound = curve.interval_error_bound(ki);
      if (bound > 0.0 && std::abs(slope) > 1e-12 &&
          bound / std::abs(slope) <= 0.5 * tol) {
        const std::optional<double> xz = curve.first_zero(bl, bh);
        out.br = std::exp(xz.value_or(0.5 * (bl + bh)));
        report_slope();
        obs::count("surrogate.refine", refine_probes);
        return out;
      }
    }

    // Next probe at the interpolant's zero, safeguarded to the bracket's
    // interior (a zero hugging an endpoint degenerates to no progress; the
    // midpoint keeps worst-case convergence at bisection speed).
    const std::optional<double> xz = curve.first_zero(bl, bh);
    const double w = bh - bl;
    double xn = 0.5 * (bl + bh);
    if (xz.has_value() && *xz > bl + 0.1 * w && *xz < bh - 0.1 * w) xn = *xz;
    ++refine_probes;
    const double mn = sample_at(xn);

    // A-posteriori Newton acceptance: the *measured* margin at the probe,
    // over the bracket's real secant slope, says how far the probe sits
    // from the crossing.  Inside half a tolerance, one corrected step
    // locates the crossing to second order -- and unlike the bound above,
    // a real transient made the final call.
    const double sec = (margin_at(bh) - margin_at(bl)) / (bh - bl);
    const double newton_dist = slope_usable(sec) ? -mn / sec : 2.0 * tol;
    if (margin_fails(mn) == fails_at_high)
      bh = xn;
    else
      bl = xn;
    if (std::abs(newton_dist) <= 0.5 * tol) {
      out.br = std::exp(std::clamp(xn + newton_dist, bl, bh));
      report_slope();
      obs::count("surrogate.refine", refine_probes);
      return out;
    }
  }

  // Same convention as numeric::bisect_predicate_log: midpoint of the
  // final log-space bracket.
  out.br = std::exp(0.5 * (bl + bh));
  report_slope();
  obs::count("surrogate.refine", refine_probes);
  return out;
}

// --- fast-model prior ------------------------------------------------------

namespace {

FastCalibOptions cheap_calibration(const SurrogateOptions& opt) {
  FastCalibOptions c;
  c.vsa_points = std::max(2, opt.vsa_knots);
  c.vsa_tol = opt.vsa_tol;
  return c;
}

}  // namespace

BorderSurrogate::BorderSurrogate(dram::DramColumn& column,
                                 const defect::Defect& d,
                                 const dram::ColumnSimulator& sim,
                                 const SurrogateOptions& opt)
    : model_(FastCellModel::calibrate(column, d, sim, cheap_calibration(opt))),
      series_(defect::is_series(d.kind)) {
  obs::count("surrogate.fit");
}

double BorderSurrogate::margin(const DetectionCondition& cond,
                               double r) const {
  FastCellModel m = model_;
  m.set_defect_resistance(r);
  const Side side = m.defect().side;
  const double vdd = m.params().vdd;
  m.set_vc(dram::physical_level(side, cond.init_logical, vdd));
  require(!cond.ops.empty() && cond.ops.back().kind == OpKind::R,
          "BorderSurrogate: condition must end in a read");
  for (size_t i = 0; i + 1 < cond.ops.size(); ++i) {
    const Operation& op = cond.ops[i];
    if (op.neighbor) continue;  // no coupling in the cell model
    switch (op.kind) {
      case OpKind::W0: m.write(0); break;
      case OpKind::W1: m.write(1); break;
      case OpKind::R: m.read(); break;
      case OpKind::Del: m.idle(op.del_seconds); break;
    }
  }
  // The final read compares Vc against the calibrated threshold; sign the
  // distance so that positive means the read returns cond.expected
  // (mirrors ConditionOutcome::margin, but on the cell-voltage scale --
  // magnitudes are not comparable across the two).
  const double th = m.vsa_threshold();
  const bool expect_high = (side == Side::True) == (cond.expected == 1);
  return expect_high ? m.vc() - th : th - m.vc();
}

BorderSurrogate::Prediction BorderSurrogate::predict(
    const DetectionCondition& cond, const SweepRange& range) const {
  Prediction p;
  for (const Operation& op : cond.ops) {
    if (op.neighbor) {
      p.reliable = false;  // the model cannot see aggressor operations
      return p;
    }
  }
  constexpr int kGrid = 33;
  const auto grid = numeric::logspace(range.lo, range.hi, kGrid);
  std::vector<double> margins(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) margins[i] = margin(cond, grid[i]);

  std::optional<size_t> edge;
  if (series_) {
    for (size_t i = 0; i < grid.size(); ++i)
      if (margin_fails(margins[i])) { edge = i; break; }
  } else {
    for (size_t i = grid.size(); i-- > 0;)
      if (margin_fails(margins[i])) { edge = i; break; }
  }
  if (!edge.has_value()) {
    p.min_abs_margin = *std::min_element(margins.begin(), margins.end());
    return p;  // predicted to never fail
  }
  const size_t e = *edge;
  if ((series_ && e == 0) || (!series_ && e == grid.size() - 1)) {
    p.fails_everywhere = true;
    p.br = series_ ? range.lo : range.hi;
    p.decades = std::log10(range.hi / range.lo);
    return p;
  }
  const double lo = series_ ? grid[e - 1] : grid[e];
  const double hi = series_ ? grid[e] : grid[e + 1];
  p.br = numeric::bisect_predicate_log(
      [&](double r) { return margin_fails(margin(cond, r)); }, lo, hi,
      {.x_tol = 0.01});
  p.decades = series_ ? std::log10(range.hi / *p.br)
                      : std::log10(*p.br / range.lo);
  return p;
}

// --- border search / analyze entry points ----------------------------------

namespace {

/// One fallback to the classic search, counted under its cause; the bare
/// `surrogate.fallback` counter is the sum over the causes.
void count_fallback(const char* cause_counter) {
  obs::count("surrogate.fallback");
  obs::count(cause_counter);
}

/// find_border_resistance with an explicit prior: probes the real margin
/// via condition_outcome, maps the crossing to a BorderResult, and handles
/// the classic fallback internally.  `prior_log_r`: ln ohms of the expected
/// BR (a BorderSurrogate prediction or the previous candidate's BR);
/// nullopt = BorderOptions::bracket_hint, else mid-range.
BorderResult surrogate_find_border(dram::DramColumn& column,
                                   const defect::Defect& d,
                                   const dram::ColumnSimulator& sim,
                                   const DetectionCondition& cond,
                                   const SweepRange& range,
                                   const BorderOptions& opt,
                                   std::optional<double> prior_log_r) {
  OBS_SPAN("surrogate.find");
  BorderResult result;
  result.condition = cond;
  result.fault_at_high_r = defect::is_series(d.kind);
  const bool series = result.fault_at_high_r;

  double prior = 0.5 * (std::log(range.lo) + std::log(range.hi));
  bool prior_is_hint = false;  // neighbour's measured BR, not a model guess
  if (prior_log_r.has_value()) {
    prior = *prior_log_r;
  } else if (opt.bracket_hint.has_value() && std::isfinite(*opt.bracket_hint) &&
             *opt.bracket_hint > range.lo && *opt.bracket_hint < range.hi) {
    // Same gate as the classic path: a hint outside the sweep range is not
    // a usable prior (clamping it to an extreme would start the walk at
    // the one point whose verdict decides a range-wide claim).
    prior = std::log(*opt.bracket_hint);
    prior_is_hint = true;
  }

  SurrogateSearchResult sr;
  {
    Injection inj(column, d, range.lo);
    long probes = 0;
    const MarginProbe probe = [&](double r) {
      ++probes;
      inj.set_value(r);
      return condition_outcome(sim, d.side, cond).margin;
    };
    sr = surrogate_root_search(probe, range, series, prior, opt,
                               opt.margin_slope_hint);
    obs::count("border.bisect.iters", probes);

    // Hint-trust check: BR moves little between the neighbouring searches
    // that supply bracket_hint, so a crossing found decades away from the
    // hint means the walk tunnelled into a different basin of a
    // non-monotone predicate (B1's delayed read has two failing regions).
    // Only the classic full scan sees the whole range; let it re-decide.
    bool implausible =
        prior_is_hint && !sr.fell_back() &&
        (sr.br.has_value() && !sr.fails_everywhere
             ? std::abs(std::log10(*sr.br) - prior / std::numbers::ln10) > 1.5
             // A range-wide verdict (never fails / fails everywhere)
             // contradicts the hint's promise of a border nearby, and the
             // walk's blind stretch -- between the passing extreme and the
             // prior -- can hide a failing island the classic grid scan is
             // guaranteed to probe.  Only the full scan decides.
             : true);
    // Classic-grid audit for hint-warmed searches: the crossing's claim is
    // "everything beyond br fails", and the classic scan would have probed
    // its fixed grid there.  One probe at the nearest grid point on the
    // claimed-failing side catches a crossing that belongs to a narrow
    // failing island the grid steps over (O2's mirrored condition at
    // Vdd=2.7 V grows a passing gap right above such an island, moving the
    // classic BR a full decade).  A passing audit probe means the claim is
    // wrong at a point the classic search is guaranteed to see.
    if (prior_is_hint && !sr.fell_back() && !implausible && sr.br.has_value() &&
        !sr.fails_everywhere) {
      const double lo_x = std::log(range.lo);
      const double hi_x = std::log(range.hi);
      const double g =
          (hi_x - lo_x) / static_cast<double>(std::max(2, opt.scan_points) - 1);
      const double bx = std::log(*sr.br);
      const double k = series ? std::ceil((bx - lo_x) / g + 1e-9)
                              : std::floor((bx - lo_x) / g - 1e-9);
      const double xa = std::clamp(lo_x + k * g, lo_x, hi_x);
      if (series ? xa > bx : xa < bx) {
        inj.set_value(std::exp(xa));
        obs::count("surrogate.verify");
        if (!condition_fails(sim, d.side, cond)) implausible = true;
      }
    }
    if (!sr.fell_back() && !implausible) {
      result.br = sr.br;
      result.fails_everywhere = sr.fails_everywhere;
      result.margin_slope = sr.crossing_slope;
      return result;
    }
    if (implausible)
      count_fallback("surrogate.fallback.implausible");
    else if (sr.give_up == SurrogateSearchResult::GiveUp::Shape)
      count_fallback("surrogate.fallback.shape");
    else
      count_fallback("surrogate.fallback.budget");
    if (!implausible && sr.bracket_lo.has_value() &&
        sr.bracket_hi.has_value() && *sr.bracket_hi > *sr.bracket_lo) {
      // The flip is sign-verified inside the bracket: classic bisection
      // can start there instead of re-scanning the whole range.  The walk
      // already probed both ends: the low one passes on a series defect
      // and fails on a shunt.
      result.br = numeric::bisect_known_log(
          [&](double r) {
            inj.set_value(r);
            return condition_fails(sim, d.side, cond);
          },
          *sr.bracket_lo, *sr.bracket_hi, !series, {.x_tol = opt.log_tol});
      return result;
    }
  }
  // No usable bracket: full classic search (the injection above is gone,
  // so the classic path owns the column exclusively).
  BorderOptions classic = opt;
  classic.bracket_hint.reset();
  return classic_find_border(column, d, sim, cond, range, classic);
}

}  // namespace

BorderResult find_border_resistance(dram::DramColumn& column,
                                    const defect::Defect& d,
                                    const dram::ColumnSimulator& sim,
                                    const DetectionCondition& cond,
                                    const SweepRange& range,
                                    const BorderOptions& opt) {
  return surrogate_find_border(column, d, sim, cond, range, opt,
                               std::nullopt);
}

// One shared BorderSurrogate ranks and prunes the candidate conditions,
// priors chain from candidate to candidate, and the refine iterations
// warm-start from the found BR.  Selection replicates the classic tie rule
// (first candidate within 0.15 decades of the best wins) on *measured*
// decades of every searched candidate.
BorderResult analyze_defect(dram::DramColumn& column, const defect::Defect& d,
                            const dram::ColumnSimulator& sim,
                            const BorderOptions& opt) {
  OBS_SPAN("border.analyze");
  const SweepRange range = defect::default_sweep_range(d.kind);
  const bool series = defect::is_series(d.kind);
  const std::vector<DetectionCondition> candidates =
      reference_candidates(column, d, sim, opt);

  const BorderSurrogate prior(column, d, sim, opt.surrogate);

  // Rank every candidate on the model first (no transients), so real
  // probes are spent only where the prediction says the candidate could
  // plausibly win the widest-failing-range criterion.
  std::vector<BorderSurrogate::Prediction> preds(candidates.size());
  std::vector<size_t> ranking;  // reliable predicted crossings, widest first
  for (size_t i = 0; i < candidates.size(); ++i) {
    preds[i] = prior.predict(candidates[i], range);
    if (preds[i].reliable && preds[i].br.has_value()) ranking.push_back(i);
  }
  std::stable_sort(ranking.begin(), ranking.end(), [&](size_t a, size_t b) {
    return preds[a].decades > preds[b].decades;
  });

  // Validity on the healthy column, probed at most once per candidate: a
  // valid test must pass there (a 100 us retention pause falsely fails
  // everything at +87 C), and only valid candidates can be selected.
  std::vector<std::optional<bool>> validity(candidates.size());
  auto valid = [&](size_t i) {
    if (!validity[i].has_value())
      validity[i] = condition_valid_on_healthy(sim, d.side, candidates[i]);
    return *validity[i];
  };
  // Prune against the best prediction among *valid* candidates -- the set
  // the classic path ranks.  An invalid candidate predicting the widest
  // range would otherwise prune every valid one, lose the selection, and
  // leave "not detectable" to the full classic re-analysis.
  double best_pred = -1.0;
  for (const size_t i : ranking) {
    if (valid(i)) {
      best_pred = preds[i].decades;
      break;
    }
  }

  // Measured BR landing further than this from the model's prediction means
  // the model missed the candidate's shape entirely (e.g. a second failing
  // region the prior basin hides); the classic full scan re-decides.
  const double kPredictionTrustDecades = 1.5;
  const double kTieTolerance = 0.15;  // decades (same rule as the classic path)
  BorderOptions classic = opt;
  classic.bracket_hint.reset();
  std::optional<double> chain_prior;  // ln ohms of the last measured BR

  // Ranking pass: measure each plausible candidate's failing decades with
  // the cheap surrogate search.  These measurements pick the *winner*; the
  // winner's BR is then re-measured classically below, so the value that
  // leaves this function (and feeds the refine derivation, whose charging
  // count flips on percent-level BR shifts) is classic-exact.
  struct Ranked {
    size_t idx;
    BorderResult r;
    double decades;
    bool classic_measured;  // r already came from the classic full scan
  };
  std::vector<Ranked> measured;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (validity[i].has_value() && !*validity[i]) continue;  // never selected
    const DetectionCondition& cand = candidates[i];
    const BorderSurrogate::Prediction& pred = preds[i];

    bool model_contradicted = !pred.reliable;
    if (pred.reliable && !pred.br.has_value()) {
      // Predicted to never fail.  One probe at the most-stressful extreme
      // decides (monotone predicate: pass there means pass everywhere).
      // Never drop a candidate on the model's word alone: at aggressive
      // stress corners the cheap calibration can be confidently wrong for
      // *every* candidate, and a zero-probe skip would then report the
      // defect undetectable while the classic scan finds a border.
      obs::count("surrogate.verify");
      bool endpoint_fails = false;
      {
        Injection inj(column, d, series ? range.hi : range.lo);
        endpoint_fails = condition_fails(sim, d.side, cand);
      }
      if (!endpoint_fails) continue;
      // The model ruled the candidate out but reality fails it: the model
      // knows nothing about this candidate's shape, so the surrogate's
      // single-crossing walk could lock onto the wrong failing region
      // (B1's 'w1 del r1' has two).  Only the classic full scan is safe.
      model_contradicted = true;
    }
    if (pred.reliable && pred.br.has_value() &&
        opt.surrogate.prune_margin_decades > 0.0 &&
        pred.decades < best_pred - opt.surrogate.prune_margin_decades)
      continue;  // cannot plausibly reach the tie window of the best

    BorderResult r;
    bool classic_measured = false;
    if (model_contradicted) {
      count_fallback("surrogate.fallback.model");
      r = classic_find_border(column, d, sim, cand, range, classic);
      classic_measured = true;
    } else {
      std::optional<double> p = chain_prior;
      if (pred.br.has_value()) p = std::log(*pred.br);
      r = surrogate_find_border(column, d, sim, cand, range, opt, p);
      if (r.br.has_value() && pred.br.has_value() &&
          std::abs(std::log10(*r.br / *pred.br)) > kPredictionTrustDecades) {
        count_fallback("surrogate.fallback.model");
        r = classic_find_border(column, d, sim, cand, range, classic);
        classic_measured = true;
      }
    }
    if (!r.br.has_value()) continue;
    chain_prior = std::log(*r.br);
    measured.push_back({i, std::move(r), 0.0, classic_measured});
    measured.back().decades = measured.back().r.failing_decades(range);
  }

  // Selection: the classic tie rule (first candidate, in candidate order,
  // whose decades beat the running best by more than the tolerance), then
  // a classic verification of the winner.  A winner the classic scan
  // cannot reproduce -- a failing *island* narrower than the coarse grid
  // (O3's 'w1 w1 w1 w0 r0' fails only near 500 kOhm) -- is discarded and
  // the selection repeats, which is exactly what the classic path, blind
  // to the island, would have decided.
  BorderResult result;
  result.fault_at_high_r = series;
  while (!measured.empty()) {
    size_t win = measured.size();
    double best_decades = -1.0;
    for (size_t m = 0; m < measured.size(); ++m) {
      if (measured[m].decades > best_decades + kTieTolerance) {
        best_decades = measured[m].decades;
        win = m;
      }
    }
    Ranked& w = measured[win];
    // Validity is otherwise checked lazily: only candidates that actually
    // win pay the probe, but the final selection is drawn from exactly the
    // valid set the classic path ranks.
    if (!valid(w.idx)) {
      measured.erase(measured.begin() + static_cast<long>(win));
      continue;
    }
    if (w.classic_measured) {
      result = std::move(w.r);
      break;
    }
    obs::count("surrogate.verify");
    BorderResult rc = classic_find_border(column, d, sim, candidates[w.idx],
                                          range, classic);
    if (!rc.br.has_value()) {
      measured.erase(measured.begin() + static_cast<long>(win));
      continue;
    }
    // Keep the surrogate's crossing slope as a warm-start hint when both
    // searches agree on the basin; a large gap means the slope belongs to
    // a different crossing of a non-monotone predicate.
    if (w.r.br.has_value() && w.r.margin_slope.has_value() &&
        std::abs(std::log10(*rc.br / *w.r.br)) < kTieTolerance)
      rc.margin_slope = w.r.margin_slope;
    // Re-enter the selection with the classic measurement: if the basin
    // the classic scan sees is narrower (B1's stressed corner), the
    // corrected decades can hand the win to a runner-up -- the decision
    // the classic path would have made.
    w.r = std::move(rc);
    w.decades = w.r.failing_decades(range);
    w.classic_measured = true;
  }
  if (!result.br.has_value()) {
    // The surrogate concluded "not detectable".  That conclusion leaned on
    // model predictions and single endpoint probes, which non-monotone
    // predicates at harsh stress corners defeat: a failing *island*
    // between two passing endpoints (O2 at tcyc=55 ns/Vdd=2.1 V fails
    // only in a mid-range band) is invisible to an endpoint probe.  Only
    // the classic grid scan is authoritative for a negative answer.
    count_fallback("surrogate.fallback.negative");
    return classic_analyze_defect(column, d, sim, classic);
  }

  // The classic refine chain: running it through the classic search keeps
  // the whole chain -- which the goldens pin -- identical to
  // classic_analyze_defect's.
  return refine_border(column, d, sim, classic, std::move(result));
}

}  // namespace dramstress::analysis
