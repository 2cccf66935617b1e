#include "analysis/vsa_cache.hpp"

#include <cmath>
#include <tuple>

#include "obs/metrics.hpp"

namespace dramstress::analysis {

bool VsaCacheKey::operator<(const VsaCacheKey& o) const {
  return std::tie(kind, side, r, vdd, temp_c, tcyc, duty, tolerance) <
         std::tie(o.kind, o.side, o.r, o.vdd, o.temp_c, o.tcyc, o.duty,
                  o.tolerance);
}

namespace {

VsaCacheKey make_key(const dram::ColumnSimulator& sim, const defect::Defect& d,
                     double r, const VsaOptions& opt) {
  const dram::OperatingConditions& c = sim.conditions();
  return VsaCacheKey{d.kind,   d.side, r,       c.vdd,
                     c.temp_c, c.tcyc, c.duty, opt.tolerance};
}

bool key_finite(const VsaCacheKey& k) {
  return std::isfinite(k.r) && std::isfinite(k.vdd) &&
         std::isfinite(k.temp_c) && std::isfinite(k.tcyc) &&
         std::isfinite(k.duty) && std::isfinite(k.tolerance);
}

}  // namespace

std::optional<VsaResult> VsaCache::lookup(const dram::ColumnSimulator& sim,
                                          const defect::Defect& d, double r,
                                          const VsaOptions& opt) {
  const VsaCacheKey key = make_key(sim, d, r, opt);
  if (!key_finite(key)) {
    obs::count("vsa_cache.bypass");
    return std::nullopt;
  }
  util::MutexLock lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  ++hits_;
  obs::count("vsa_cache.hit");
  return it->second;
}

void VsaCache::insert(const dram::ColumnSimulator& sim,
                      const defect::Defect& d, double r, const VsaOptions& opt,
                      const VsaResult& result) {
  const VsaCacheKey key = make_key(sim, d, r, opt);
  if (!key_finite(key)) return;
  util::MutexLock lock(mu_);
  ++misses_;
  obs::count("vsa_cache.miss");
  if (std::isfinite(result.threshold)) entries_.emplace(key, result);
}

size_t VsaCache::hits() const {
  util::MutexLock lock(mu_);
  return hits_;
}

size_t VsaCache::misses() const {
  util::MutexLock lock(mu_);
  return misses_;
}

size_t VsaCache::size() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

void VsaCache::clear() {
  util::MutexLock lock(mu_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace dramstress::analysis
