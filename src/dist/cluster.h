// Cluster: which shard am I, how many are there, and how do we talk —
// the identity a ShardedRuntime executes under (DESIGN.md §13).
#ifndef GUMBO_DIST_CLUSTER_H_
#define GUMBO_DIST_CLUSTER_H_

#include "dist/transport.h"

namespace gumbo::dist {

/// One shard's identity within a running cluster. Plain aggregate: the
/// transport is borrowed and must outlive every execution using it.
struct Cluster {
  Transport* transport = nullptr;
  int shard = 0;
  int num_shards = 1;
};

}  // namespace gumbo::dist

#endif  // GUMBO_DIST_CLUSTER_H_
