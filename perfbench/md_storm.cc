// md_storm: one actor runs a seeded mdtest-shaped storm against a
// pre-populated namespace on the sharded MDS (4 shards, GIGA+ splits on)
// through the pipelined request engine. Like mdtest, it runs one phase per
// operation over the files it creates: create (writing a small payload),
// stat, open/read/close, then remove; a readdir of every directory sits
// between the reads and the removes. The read phase opens its files in
// groups that stay open together, so the client's open-file table gets
// deep. With one actor the scheduler hands nothing off: MDS lookups, the
// client's handle table and the rpc engine carry the host cost.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "pdsi/common/bytes.h"
#include "pdsi/obs/obs.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/sim/virtual_time.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kDirs = 16;  ///< ~7k entries each: partitions split
constexpr std::uint32_t kPrepopulated = 100000;  ///< files before the storm
constexpr std::uint32_t kFiles = 16000;          ///< files the storm creates
constexpr std::uint64_t kFileBytes = 3901;       ///< IO500 mdtest-hard -w/-e
constexpr std::uint32_t kOpenGroup = 4096;       ///< handles open at once

struct Inputs {
  std::vector<std::string> dirs;
  std::vector<std::string> prepopulated;
  std::vector<std::string> files;  ///< in creation order
  std::vector<std::uint32_t> stat_order, read_order, unlink_order;
  /// Each directory's sorted listing while the storm's files exist.
  std::vector<std::vector<std::string>> listings;
  /// The namespace after the storm: what remains is the pre-population.
  std::map<std::string, std::vector<std::string>> after;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t below(std::uint64_t n) { return Mix64(s_++) % n; }

  std::vector<std::uint32_t> permutation(std::uint32_t n) {
    std::vector<std::uint32_t> v(n);
    for (std::uint32_t i = 0; i < n; ++i) v[i] = i;
    for (std::uint32_t i = n - 1; i > 0; --i) std::swap(v[i], v[below(i + 1)]);
    return v;
  }

 private:
  std::uint64_t s_;
};

/// Generates the namespace, the storm's files and each phase's order,
/// with the expected directory listings before and after the removes.
Inputs Generate(std::uint64_t seed) {
  Inputs in;
  Rng rng(seed * 0x100000001b3ULL + 17);
  std::vector<std::vector<std::string>> names(kDirs);
  auto place = [&](const char* kind, std::uint32_t id) {
    const auto d = static_cast<std::uint32_t>(rng.below(kDirs));
    char leaf[24];
    std::snprintf(leaf, sizeof(leaf), "%s%07u", kind, id);
    names[d].emplace_back(leaf);
    return in.dirs[d] + "/" + leaf;
  };
  for (std::uint32_t d = 0; d < kDirs; ++d) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "/md/d%02u", d);
    in.dirs.emplace_back(buf);
  }
  for (std::uint32_t i = 0; i < kPrepopulated; ++i) in.prepopulated.push_back(place("p", i));
  for (std::uint32_t d = 0; d < kDirs; ++d) {
    std::sort(names[d].begin(), names[d].end());
    in.after[in.dirs[d]] = names[d];
  }
  for (std::uint32_t i = 0; i < kFiles; ++i) in.files.push_back(place("n", i));
  for (auto& n : names) std::sort(n.begin(), n.end());
  in.listings = std::move(names);
  in.stat_order = rng.permutation(kFiles);
  in.read_order = rng.permutation(kFiles);
  in.unlink_order = rng.permutation(kFiles);
  return in;
}

pdsi::pfs::PfsConfig Config() {
  pdsi::pfs::PfsConfig cfg = pdsi::pfs::PfsConfig::PanFsLike(4);
  cfg.num_mds_shards = 4;  // splits on: the default threshold applies
  cfg.rpc_window = 16;
  cfg.rpc_batch = 4;
  cfg.store_data = false;  // the metadata plane; sizes still tracked
  return cfg;
}

}  // namespace

void RunMdStorm(Rep& rep) {
  const std::uint64_t t_setup = NowNs();
  const Inputs in = Generate(rep.seed);

  pdsi::obs::Registry reg;
  pdsi::obs::Context ctx{nullptr, &reg};
  pdsi::sim::VirtualScheduler sched(1);
  pdsi::sim::VirtualBarrier barrier(sched, {0});
  pdsi::pfs::PfsCluster cluster(Config(), sched, nullptr, rep.traced ? &ctx : nullptr);
  const double rss_empty = RssMb();
  bool setup_ok = cluster.smds().mkdir("/md").ok();
  for (const std::string& d : in.dirs) setup_ok &= cluster.smds().mkdir(d).ok();
  for (const std::string& p : in.prepopulated) setup_ok &= cluster.smds().create(p, 0.0).ok();
  const double namespace_mb = RssMb() - rss_empty;
  pdsi::pfs::PfsClient client(cluster, 0);
  ThreadLog log(rep.traced);
  log.lat_ns.reserve(8 * kFiles + kDirs + 16);
  const pdsi::Bytes payload(kFileBytes, 0x33);
  pdsi::Bytes buf(kFileBytes);
  std::vector<pdsi::pfs::FileHandle> group;
  group.reserve(kOpenGroup);
  std::vector<std::vector<std::string>> listed(kDirs);
  if (!setup_ok) log.fail();
  rep.sizes = std::to_string(kPrepopulated) + " pre-populated files in " +
              std::to_string(kDirs) + " directories (" +
              std::to_string(static_cast<int>(namespace_mb)) +
              " MiB resident namespace, against 2 MiB L2 per core); the storm creates, stats, "
              "reads and removes " + std::to_string(kFiles) + " files of " +
              std::to_string(kFileBytes) + " B, up to " + std::to_string(kOpenGroup) +
              " open at once; 4 MDS shards, rpc window 16 batch 4";
  rep.setup_s = static_cast<double>(NowNs() - t_setup) * 1e-9;

  PhaseTimer timer;
  timer.start();
  const double v0 = log.span(Kind::sim_barrier, [&] { return barrier.arrive(0); });
  for (const std::string& p : in.files) {
    auto h = log.op(Kind::pfs_create, [&] { return client.create(p); });
    if (!h.ok()) {
      log.fail();
      continue;
    }
    if (!log.op(Kind::pfs_write, [&] { return client.write(*h, 0, payload); }).ok()) log.fail();
    if (!log.op(Kind::pfs_close, [&] { return client.close(*h); }).ok()) log.fail();
  }
  rep.host["mem.rss_after_write_mb"] = RssMb();
  for (const std::uint32_t i : in.stat_order) {
    auto st = log.op(Kind::pfs_stat, [&] { return client.stat(in.files[i]); });
    if (!st.ok() || st->size != kFileBytes || st->is_dir) log.fail();
  }
  for (std::size_t g = 0; g < in.read_order.size(); g += kOpenGroup) {
    const std::size_t end = std::min<std::size_t>(g + kOpenGroup, in.read_order.size());
    group.clear();
    for (std::size_t k = g; k < end; ++k) {
      auto h = log.op(Kind::pfs_open, [&] { return client.open(in.files[in.read_order[k]]); });
      if (!h.ok()) log.fail();
      group.push_back(h.value_or(-1));
    }
    if (g == 0) rep.host["mem.rss_after_open_mb"] = RssMb();
    for (const pdsi::pfs::FileHandle h : group) {
      auto got = log.op(Kind::pfs_read, [&] { return client.read(h, 0, buf); });
      if (!got.ok() || *got != kFileBytes) log.fail();
      if (!log.op(Kind::pfs_close, [&] { return client.close(h); }).ok()) log.fail();
    }
  }
  for (std::uint32_t d = 0; d < kDirs; ++d) {
    auto names = log.op(Kind::pfs_readdir, [&] { return client.readdir(in.dirs[d]); });
    if (names.ok()) {
      listed[d] = std::move(*names);
    } else {
      log.fail();
    }
  }
  for (const std::uint32_t i : in.unlink_order) {
    if (!log.op(Kind::pfs_unlink, [&] { return client.unlink(in.files[i]); }).ok()) log.fail();
  }
  const double v1 = log.span(Kind::sim_barrier, [&] { return barrier.arrive(0); });
  timer.stop(rep);

  // Reference-namespace checks, untimed: the listings the readdir phase
  // returned, and every directory's listing after the removes.
  for (std::uint32_t d = 0; d < kDirs; ++d) {
    std::sort(listed[d].begin(), listed[d].end());
    if (listed[d] != in.listings[d]) log.fail();
  }
  for (const auto& [dir, want] : in.after) {
    auto names = client.readdir(dir);
    if (!names.ok()) {
      log.fail();
      continue;
    }
    std::vector<std::string> got = std::move(*names);
    std::sort(got.begin(), got.end());
    if (got != want) log.fail();
  }
  sched.finish(0);
  const double ops = static_cast<double>(log.lat_ns.size());
  rep.absorb(log);

  rep.virt["md.virtual_ops_per_s"] = ops / (v1 - v0);
  if (rep.traced) {
    CollectPfsCounters(reg, {&cluster}, rep);
    CollectRpcStats(client.rpc_stats(), rep);
    rep.counters["rpc.client_ops"] = ops;
  }
}

}  // namespace perfbench
