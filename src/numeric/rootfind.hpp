// 1-D root finding used throughout the fault analysis:
//  * bisection on monotone pass/fail predicates (Vsa extraction: "does a read
//    of initial cell voltage V return 1?"),
//  * bracketed scalar root finding (border-resistance extraction: zero of
//    Vc_after_sequence(R) - Vsa(R)).
#pragma once

#include <functional>

namespace dramstress::numeric {

struct BisectOptions {
  double x_tol = 1e-3;   // absolute tolerance on x
  int max_iter = 80;
};

/// Bisection on a boolean predicate assumed monotone over [lo, hi]:
/// pred(lo) and pred(hi) must differ.  Returns the boundary x where the
/// predicate flips (midpoint of the final bracket).
/// Throws ConvergenceError if pred(lo) == pred(hi).
double bisect_predicate(const std::function<bool(double)>& pred, double lo,
                        double hi, const BisectOptions& opt = {});

/// Like bisect_predicate, but returns the final bracket [lo, hi] instead of
/// the midpoint; useful for reporting uncertainty intervals.
struct Bracket {
  double lo = 0.0;
  double hi = 0.0;
  double mid() const { return 0.5 * (lo + hi); }
  double width() const { return hi - lo; }
};
Bracket bisect_predicate_bracket(const std::function<bool(double)>& pred,
                                 double lo, double hi,
                                 const BisectOptions& opt = {});

/// The bisection loop of bisect_predicate_bracket, for a caller that
/// already holds both endpoint verdicts: pred(lo) == lo_verdict and
/// pred(hi) == !lo_verdict.  Neither endpoint is re-evaluated, so a caller
/// whose predicate is a transient saves two of them; the bracket is the
/// one bisect_predicate_bracket returns for the same predicate.
Bracket bisect_known_bracket(const std::function<bool(double)>& pred,
                             double lo, double hi, bool lo_verdict,
                             const BisectOptions& opt = {});

/// Classic bisection for f(x) = 0 with f(lo), f(hi) of opposite sign.
double bisect_root(const std::function<double(double)>& f, double lo,
                   double hi, const BisectOptions& opt = {});

/// Bisection in log-space for quantities spanning decades (defect
/// resistance).  lo and hi must be positive and bracket the flip.
double bisect_predicate_log(const std::function<bool(double)>& pred, double lo,
                            double hi, const BisectOptions& opt = {});

/// bisect_predicate_log with known endpoint verdicts (see
/// bisect_known_bracket): pred(lo) == lo_verdict, pred(hi) == !lo_verdict.
double bisect_known_log(const std::function<bool(double)>& pred, double lo,
                        double hi, bool lo_verdict,
                        const BisectOptions& opt = {});

}  // namespace dramstress::numeric
