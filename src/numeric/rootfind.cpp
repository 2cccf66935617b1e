#include "numeric/rootfind.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace dramstress::numeric {

Bracket bisect_predicate_bracket(const std::function<bool(double)>& pred,
                                 double lo, double hi,
                                 const BisectOptions& opt) {
  require(lo < hi, "bisect: lo must be < hi");
  const bool plo = pred(lo);
  const bool phi = pred(hi);
  if (plo == phi) {
    throw ConvergenceError(util::format(
        "bisect_predicate: predicate does not flip over [%g, %g] (both %s)",
        lo, hi, plo ? "true" : "false"));
  }
  return bisect_known_bracket(pred, lo, hi, plo, opt);
}

Bracket bisect_known_bracket(const std::function<bool(double)>& pred,
                             double lo, double hi, bool lo_verdict,
                             const BisectOptions& opt) {
  require(lo < hi, "bisect: lo must be < hi");
  for (int i = 0; i < opt.max_iter && (hi - lo) > opt.x_tol; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (pred(mid) == lo_verdict)
      lo = mid;
    else
      hi = mid;
  }
  return Bracket{lo, hi};
}

double bisect_predicate(const std::function<bool(double)>& pred, double lo,
                        double hi, const BisectOptions& opt) {
  return bisect_predicate_bracket(pred, lo, hi, opt).mid();
}

double bisect_root(const std::function<double(double)>& f, double lo,
                   double hi, const BisectOptions& opt) {
  require(lo < hi, "bisect_root: lo must be < hi");
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if ((flo > 0.0) == (fhi > 0.0)) {
    throw ConvergenceError(util::format(
        "bisect_root: f does not change sign over [%g, %g] (f=%g, %g)", lo, hi,
        flo, fhi));
  }
  for (int i = 0; i < opt.max_iter && (hi - lo) > opt.x_tol; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0) return mid;
    if ((fmid > 0.0) == (flo > 0.0)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
      fhi = fmid;
    }
  }
  return 0.5 * (lo + hi);
}

double bisect_predicate_log(const std::function<bool(double)>& pred, double lo,
                            double hi, const BisectOptions& opt) {
  require(lo > 0.0 && hi > lo, "bisect_predicate_log: need 0 < lo < hi");
  // x_tol is read in log-space, i.e. as a relative tolerance on x.
  auto pred_log = [&](double u) { return pred(std::exp(u)); };
  return std::exp(bisect_predicate(pred_log, std::log(lo), std::log(hi), opt));
}

double bisect_known_log(const std::function<bool(double)>& pred, double lo,
                        double hi, bool lo_verdict, const BisectOptions& opt) {
  require(lo > 0.0 && hi > lo, "bisect_known_log: need 0 < lo < hi");
  auto pred_log = [&](double u) { return pred(std::exp(u)); };
  return std::exp(
      bisect_known_bracket(pred_log, std::log(lo), std::log(hi), lo_verdict,
                           opt)
          .mid());
}

}  // namespace dramstress::numeric
