// ckpt_n1: the paper's headline pattern. kCkptRanks rank threads, each a
// closed loop, write seeded small unaligned strided records to one shared
// file: first directly through PfsClient, then through plfs::Writer, each
// phase on its own PanFS-like cluster. Every simulated op is a scheduler
// admission, so the sim layer's thread hand-offs dominate host cost here.
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "pdsi/common/bytes.h"
#include "pdsi/obs/obs.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/plfs/pfs_backend.h"
#include "pdsi/plfs/plfs.h"
#include "pdsi/sim/virtual_time.h"
#include "pdsi/workload/patterns.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kRecordsPerRank = 4000;
constexpr std::uint32_t kOss = 8;

struct Phase {
  explicit Phase(pdsi::obs::Context* obs)
      : sched(kCkptRanks), barrier(sched, Actors()), cluster(Config(), sched, nullptr, obs) {
    if (!cluster.smds().mkdir("/ckpt").ok()) std::abort();
  }

  static std::vector<std::size_t> Actors() {
    std::vector<std::size_t> v(kCkptRanks);
    for (std::uint32_t r = 0; r < kCkptRanks; ++r) v[r] = r;
    return v;
  }
  static pdsi::pfs::PfsConfig Config() {
    pdsi::pfs::PfsConfig cfg = pdsi::pfs::PfsConfig::PanFsLike(kOss);
    cfg.store_data = false;  // timing-only, as the Fig. 8 benches run it
    return cfg;
  }

  pdsi::sim::VirtualScheduler sched;
  pdsi::sim::VirtualBarrier barrier;
  pdsi::pfs::PfsCluster cluster;
  double t_begin = 0.0;
  double t_end = 0.0;
};

template <typename Body>
void RunRanks(std::vector<ThreadLog>& logs, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(kCkptRanks);
  for (std::uint32_t r = 0; r < kCkptRanks; ++r) {
    threads.emplace_back([&, r] { body(r, logs[r]); });
  }
  for (auto& t : threads) t.join();
}

}  // namespace

void RunCkptN1(Rep& rep) {
  const std::uint64_t t_setup = NowNs();

  // Inputs: one seeded record size just above the 47 KiB of Fig. 8's
  // LANL app model, odd so that no record is aligned to the lock or RAID
  // unit, and the N-1 strided offsets of every rank. The seed moves the
  // size by under 0.2%, so every seed does nearly the same work.
  pdsi::workload::CheckpointSpec spec;
  spec.ranks = kCkptRanks;
  spec.record_bytes = 47 * 1024 + 1 + 2 * (Mix64(rep.seed) % 32);
  spec.records_per_rank = kRecordsPerRank;
  const std::uint64_t rec = spec.record_bytes;
  std::vector<std::vector<pdsi::workload::WriteOp>> writes(kCkptRanks);
  for (std::uint32_t r = 0; r < kCkptRanks; ++r) writes[r] = pdsi::workload::WritesForRank(spec, r);
  const pdsi::Bytes payload(rec, 0x5a);
  const std::uint64_t expected_size = spec.total_bytes();

  pdsi::obs::Registry reg;
  pdsi::obs::Context ctx{nullptr, &reg};
  pdsi::obs::Context* obs = rep.traced ? &ctx : nullptr;
  Phase direct(obs);
  Phase plfs_phase(obs);
  std::vector<std::unique_ptr<pdsi::pfs::PfsClient>> clients;
  std::vector<std::unique_ptr<pdsi::plfs::Backend>> backends;
  for (std::uint32_t r = 0; r < kCkptRanks; ++r) {
    clients.push_back(std::make_unique<pdsi::pfs::PfsClient>(direct.cluster, r));
    backends.push_back(pdsi::plfs::MakePfsBackend(plfs_phase.cluster, r));
  }
  pdsi::plfs::Options opts;
  opts.obs = obs;
  pdsi::plfs::WriteClock clock{1};
  std::vector<ThreadLog> logs;
  for (std::uint32_t r = 0; r < kCkptRanks; ++r) {
    logs.emplace_back(rep.traced);
    logs.back().lat_ns.reserve(kRecordsPerRank * 2 + 16);
  }
  rep.sizes = std::to_string(kCkptRanks) + " ranks x " + std::to_string(kRecordsPerRank) +
              " strided records of " + std::to_string(rec) + " B per phase (" +
              std::to_string(expected_size) + " B logical file, " + std::to_string(kOss) +
              " OSS, PanFS-like), direct then PLFS";
  rep.setup_s = static_cast<double>(NowNs() - t_setup) * 1e-9;

  PhaseTimer timer;
  timer.start();

  // Direct phase: rank 0 creates the shared file, the others open it.
  RunRanks(logs, [&](std::uint32_t r, ThreadLog& log) {
    pdsi::pfs::PfsClient& c = *clients[r];
    auto arrive = [&] { return log.span(Kind::sim_barrier, [&] { return direct.barrier.arrive(r); }); };
    const double t0 = arrive();
    pdsi::Result<pdsi::pfs::FileHandle> fh = pdsi::Errc::bad_handle;
    if (r == 0) {
      fh = log.op(Kind::pfs_create, [&] { return c.create("/ckpt/direct"); });
      arrive();
    } else {
      arrive();
      fh = log.op(Kind::pfs_open, [&] { return c.open("/ckpt/direct"); });
    }
    if (!fh.ok()) log.fail();
    const pdsi::pfs::FileHandle h = fh.value_or(-1);
    for (const pdsi::workload::WriteOp& op : writes[r]) {
      if (!log.op(Kind::pfs_write, [&] { return c.write(h, op.offset, payload); }).ok()) log.fail();
    }
    if (!log.op(Kind::pfs_close, [&] { return c.close(h); }).ok()) log.fail();
    const double t1 = arrive();
    if (r == 0) {
      direct.t_begin = t0;
      direct.t_end = t1;
      // Commit: check the logical size, find the file, retire it.
      auto st = log.op(Kind::pfs_stat, [&] { return c.stat("/ckpt/direct"); });
      if (!st.ok() || st->size != expected_size) log.fail();
      auto names = log.op(Kind::pfs_readdir, [&] { return c.readdir("/ckpt"); });
      if (!names.ok() || names->size() != 1 || names->front() != "direct") log.fail();
      if (!log.op(Kind::pfs_rename, [&] { return c.rename("/ckpt/direct", "/ckpt/direct.done"); }).ok()) {
        log.fail();
      }
      if (!log.op(Kind::pfs_unlink, [&] { return c.unlink("/ckpt/direct.done"); }).ok()) log.fail();
    }
    direct.sched.finish(r);
  });
  const double rss_direct = RssMb();

  // PLFS phase: every rank logs the same records through its own Writer.
  RunRanks(logs, [&](std::uint32_t r, ThreadLog& log) {
    TimingBackend timed(*backends[r], log);
    pdsi::plfs::Backend& be = rep.traced ? static_cast<pdsi::plfs::Backend&>(timed) : *backends[r];
    auto arrive = [&] { return log.span(Kind::sim_barrier, [&] { return plfs_phase.barrier.arrive(r); }); };
    const double t0 = arrive();
    auto w = log.op(Kind::plfs_open_write,
                    [&] { return pdsi::plfs::Writer::Open(be, "/ckpt/plfs", r, opts, clock); });
    if (w.ok()) {
      pdsi::plfs::Writer& writer = **w;
      for (const pdsi::workload::WriteOp& op : writes[r]) {
        if (!log.op(Kind::plfs_write, [&] { return writer.write(op.offset, payload); }).ok()) log.fail();
      }
      if (!log.op(Kind::plfs_close, [&] { return writer.close(); }).ok()) log.fail();
    } else {
      log.fail();
    }
    const double t1 = arrive();
    if (r == 0) {
      plfs_phase.t_begin = t0;
      plfs_phase.t_end = t1;
      auto size = log.op(Kind::plfs_stat, [&] { return pdsi::plfs::StatSize(be, "/ckpt/plfs"); });
      if (!size.ok() || *size != expected_size) log.fail();
    }
    plfs_phase.sched.finish(r);
  });

  timer.stop(rep);
  rep.host["mem.rss_after_open_mb"] = rss_direct;
  rep.host["mem.rss_after_write_mb"] = RssMb();
  for (ThreadLog& log : logs) rep.absorb(log);

  const double direct_s = direct.t_end - direct.t_begin;
  const double plfs_s = plfs_phase.t_end - plfs_phase.t_begin;
  const auto bytes = static_cast<double>(expected_size);
  rep.virt["ckpt.virtual_direct_mbs"] = bytes / direct_s / 1e6;
  rep.virt["ckpt.virtual_plfs_mbs"] = bytes / plfs_s / 1e6;
  rep.virt["ckpt.virtual_speedup"] = direct_s / plfs_s;
  if (rep.traced) {
    CollectPfsCounters(reg, {&direct.cluster, &plfs_phase.cluster}, rep);
    double client_ops = 0.0;
    for (std::uint32_t r = 0; r < kCkptRanks; ++r) {
      CollectRpcStats(clients[r]->rpc_stats(), rep);
      client_ops += static_cast<double>(writes[r].size() + 2);
    }
    rep.counters["rpc.client_ops"] = client_ops + 4;  // rank 0's commit ops
  }
}

}  // namespace perfbench
