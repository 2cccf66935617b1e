// Only a forward declaration: the benchmark harness still names the type;
// this header goes with the next benchmark/ change.
#pragma once

namespace dramstress::analysis {
class VsaCache;
}  // namespace dramstress::analysis
