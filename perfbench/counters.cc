// Exact counters read from the program after a traced repetition.
#include <algorithm>
#include <string>

#include "harness.h"

namespace perfbench {

void CollectPfsCounters(pdsi::obs::Registry& reg,
                        const std::vector<pdsi::pfs::PfsCluster*>& clusters, Rep& rep) {
  auto& c = rep.counters;
  c["pfs.lock_conflicts"] = static_cast<double>(reg.counter("pfs.lock_conflicts").value());
  auto& wait = reg.histogram("pfs.lock_wait_s", pdsi::obs::LatencyBuckets());
  c["pfs.lock_waits"] = static_cast<double>(wait.total());
  c["pfs.lock_wait_s.p50"] = wait.quantile(0.5);
  c["pfs.mds_stale_retries"] =
      static_cast<double>(reg.counter("pfs.mds_stale_retries").value());
  c["oss.ops"] = static_cast<double>(reg.counter("oss.ops").value());
  c["oss.bytes_written"] = static_cast<double>(reg.counter("oss.bytes_written").value());
  c["oss.bytes_read"] = static_cast<double>(reg.counter("oss.bytes_read").value());

  // One registry spans every cluster of the repetition, so per-shard
  // instruments already sum across clusters of the same shape.
  const std::uint32_t shards = clusters.front()->config().num_mds_shards;
  double ops = 0.0, max_shard = 0.0, splits = 0.0, busy = 0.0;
  for (std::uint32_t k = 0; k < shards; ++k) {
    const std::string key = shards > 1 ? "mds.s" + std::to_string(k) + ".ops" : "mds.ops";
    const auto v = static_cast<double>(reg.counter(key).value());
    ops += v;
    max_shard = std::max(max_shard, v);
  }
  for (pdsi::pfs::PfsCluster* cl : clusters) {
    splits += static_cast<double>(cl->smds().splits());
    busy += cl->total_disk_busy();
  }
  c["mds.ops"] = ops;
  c["mds.splits"] = splits;
  c["mds.shard_ops_max_over_mean"] = ops > 0.0 ? max_shard / (ops / shards) : 0.0;
  c["storage.disk_busy_s"] = busy;
}

void CollectRpcStats(const pdsi::rpc::EngineStats& s, Rep& rep) {
  auto& c = rep.counters;
  c["rpc.submitted"] += static_cast<double>(s.submitted);
  c["rpc.messages"] += static_cast<double>(s.messages);
  c["rpc.window_stalls"] += static_cast<double>(s.window_stalls);
  c["rpc.failures"] += static_cast<double>(s.failures);
}

}  // namespace perfbench
