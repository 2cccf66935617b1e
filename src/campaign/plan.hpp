// Campaign plan: the spec's {defect x point x analysis} matrix expanded
// into a DAG of work units with content-addressed cache keys.
//
// Units are independent except for one true data dependency: an optimize
// unit consumes the border analysis of its (defect, point) cell.  It starts
// from that result (the optimizer's Section-3 step) instead of redoing it,
// and when the border analysis finds no detectable fault anywhere in the
// sweep range, the optimization is provably futile (optimize_stresses would
// throw), so the runner skips it with a recorded reason instead of burning
// retries.
//
// Cache keys hash every input the unit result depends on: the column
// netlist signature (device names, kinds and terminal nodes), the defect,
// the operating corner *values* (renaming a point does not invalidate),
// the SimSettings and analysis options, and the engine version from
// obs/version -- so `campaign run` is incremental across spec edits and
// conservative across engine changes.
#pragma once

#include <cstddef>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/spec.hpp"
#include "dram/column.hpp"

namespace dramstress::campaign {

struct WorkUnit {
  size_t index = 0;
  UnitKind kind = UnitKind::Border;
  size_t defect_index = 0;
  size_t point_index = 0;
  std::vector<size_t> deps;  // indices of units that must finish first
  std::string id;            // "border/o3@nominal"
  CacheKey key;
  /// Execution input, empty in the plan: the executor hands an optimize
  /// unit its border dependency's payload on a per-execution copy, and the
  /// optimizer resumes from that payload's "border_state".  The border
  /// payload is a pure function of the border key, whose inputs the
  /// optimize key already hashes, so the key still covers the result.
  std::string border_payload;
};

struct CampaignPlan {
  CampaignSpec spec;
  std::vector<WorkUnit> units;

  const defect::Defect& defect_of(const WorkUnit& u) const {
    return spec.defects[u.defect_index];
  }
  const StressPoint& point_of(const WorkUnit& u) const {
    return spec.points[u.point_index];
  }
};

/// Signature of the column netlist the campaign simulates: device names,
/// kinds and terminal node names in construction order.  Any topology
/// change (new device, moved terminal) changes every cache key.
std::string netlist_signature(const dram::DramColumn& column);

/// Expand `spec` into the ordered unit list (defect-major, point-minor,
/// border < planes < optimize within a cell).  Border units are added
/// implicitly for cells that request optimize without border.
CampaignPlan expand(const CampaignSpec& spec, const dram::DramColumn& column);

}  // namespace dramstress::campaign
