// Memoized Vsa(R) extraction.
//
// generate_plane_set extracts the identical Vsa(R) curve once per op
// plane -- three bisections (a dozen read simulations each) per R point
// where one suffices.  The threshold is fully determined by the defect,
// its resistance, the addressed side, the operating corner and the
// bisection tolerance, so a cache keyed on exactly that tuple returns
// bit-identical results to a fresh extraction.  The cache is thread-safe:
// parallel plane workers share one instance.  Two workers racing on the
// same missing key may both run the extraction, but they store the same
// deterministic value, so the first insert wins harmlessly.
#pragma once

#include <cstddef>
#include <map>
#include <optional>

#include "analysis/vsa.hpp"
#include "defect/defect.hpp"
#include "util/annotations.hpp"

namespace dramstress::analysis {

/// Everything extract_vsa's result depends on, with exact (bitwise) double
/// comparison -- sweep grids revisit the very same values.
struct VsaCacheKey {
  defect::DefectKind kind{};
  dram::Side side{};
  double r = 0.0;
  double vdd = 0.0;
  double temp_c = 0.0;
  double tcyc = 0.0;
  double duty = 0.0;
  double tolerance = 0.0;

  bool operator<(const VsaCacheKey& o) const;
};

class VsaCache {
public:
  /// Cache probe without extraction: callers extract their misses (the
  /// plane sweep batches them) and insert the results.  Returns nullopt
  /// on a miss or when the key has a non-finite component (bypass: a NaN
  /// would break the map's strict weak ordering).
  std::optional<VsaResult> lookup(const dram::ColumnSimulator& sim,
                                  const defect::Defect& d, double r,
                                  const VsaOptions& opt = {})
      DS_EXCLUDES(mu_);

  /// Store an extracted result under the same key lookup uses.  Counted as
  /// a miss.  Non-finite keys are skipped, and so are non-finite
  /// thresholds (a broken trace must not poison later lookups).
  void insert(const dram::ColumnSimulator& sim, const defect::Defect& d,
              double r, const VsaOptions& opt, const VsaResult& result)
      DS_EXCLUDES(mu_);

  size_t hits() const DS_EXCLUDES(mu_);
  size_t misses() const DS_EXCLUDES(mu_);
  size_t size() const DS_EXCLUDES(mu_);
  void clear() DS_EXCLUDES(mu_);

private:
  mutable util::Mutex mu_;
  std::map<VsaCacheKey, VsaResult> entries_ DS_GUARDED_BY(mu_);
  size_t hits_ DS_GUARDED_BY(mu_) = 0;
  size_t misses_ DS_GUARDED_BY(mu_) = 0;
};

}  // namespace dramstress::analysis
