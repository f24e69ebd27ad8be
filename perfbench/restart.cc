// restart: one actor writes an N-1 PLFS checkpoint (stored bytes, one
// uncompressed index record per write) on behalf of many writer ranks,
// then restarts it: a cold-merge open, FlattenIndex, a flat open, an
// IndexCache open that misses and one that hits, and a full read-back
// with every byte verified. The plfs index and read path, the pfs data
// path and memory do the work; the scheduler hands nothing off.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "pdsi/common/bytes.h"
#include "pdsi/obs/obs.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/plfs/index_cache.h"
#include "pdsi/plfs/pfs_backend.h"
#include "pdsi/plfs/plfs.h"
#include "pdsi/sim/virtual_time.h"
#include "pdsi/workload/patterns.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kWriterRanks = 64;
constexpr std::uint32_t kRecordsPerRank = 512;
constexpr std::uint32_t kOss = 8;
constexpr std::uint64_t kRecord = 2 * 1024 + 1;  ///< unaligned on purpose
constexpr std::uint64_t kChunk = 64 * 1024;      ///< read-back request size

pdsi::pfs::PfsConfig Config() {
  pdsi::pfs::PfsConfig cfg = pdsi::pfs::PfsConfig::PanFsLike(kOss);
  cfg.store_data = true;  // the read-back verifies real bytes
  return cfg;
}

}  // namespace

void RunRestart(Rep& rep) {
  const std::uint64_t t_setup = NowNs();

  // Inputs: the N-1 strided write pattern, the logical file's seeded
  // content, which both the writes and the byte check take from, and a
  // seeded order for the read-back chunks.
  // Sizes do not depend on the seed, so every seed does the same work.
  pdsi::workload::CheckpointSpec spec;
  spec.ranks = kWriterRanks;
  spec.record_bytes = kRecord;
  spec.records_per_rank = kRecordsPerRank;
  std::vector<std::vector<pdsi::workload::WriteOp>> writes(kWriterRanks);
  for (std::uint32_t r = 0; r < kWriterRanks; ++r) writes[r] = pdsi::workload::WritesForRank(spec, r);
  const std::uint64_t logical = spec.total_bytes();
  pdsi::Bytes content(logical);
  for (std::uint64_t i = 0; i < logical; i += 8) {
    const std::uint64_t w = Mix64(rep.seed ^ (i * 0x9e3779b97f4a7c15ULL));
    std::memcpy(content.data() + i, &w, std::min<std::uint64_t>(8, logical - i));
  }
  std::vector<std::uint64_t> chunks((logical + kChunk - 1) / kChunk);
  for (std::uint64_t i = 0; i < chunks.size(); ++i) chunks[i] = i * kChunk;
  for (std::uint64_t i = chunks.size() - 1; i > 0; --i) {
    std::swap(chunks[i], chunks[Mix64(rep.seed + i) % (i + 1)]);
  }

  pdsi::obs::Registry reg;
  pdsi::obs::Context ctx{nullptr, &reg};
  pdsi::obs::Context* obs = rep.traced ? &ctx : nullptr;
  pdsi::sim::VirtualScheduler sched(1);
  pdsi::sim::VirtualBarrier barrier(sched, {0});
  pdsi::pfs::PfsCluster cluster(Config(), sched, nullptr, obs);
  auto inner = pdsi::plfs::MakePfsBackend(cluster, 0);
  ThreadLog log(rep.traced);
  log.lat_ns.reserve(kWriterRanks * (kRecordsPerRank + 2) + chunks.size() + 16);
  TimingBackend timed(*inner, log);
  pdsi::plfs::Backend& be = rep.traced ? static_cast<pdsi::plfs::Backend&>(timed) : *inner;
  pdsi::plfs::IndexCache cache(8);
  pdsi::plfs::Options wopt;
  wopt.index_compression = false;
  wopt.obs = obs;
  pdsi::plfs::Options cold_opt;
  cold_opt.use_flat_index = false;
  cold_opt.obs = obs;
  pdsi::plfs::Options flat_opt;
  flat_opt.obs = obs;
  pdsi::plfs::Options cached_opt = flat_opt;
  cached_opt.index_cache = &cache;
  pdsi::plfs::WriteClock clock{1};
  pdsi::Bytes buf(kChunk);
  rep.sizes = std::to_string(kWriterRanks) + " writer ranks x " +
              std::to_string(kRecordsPerRank) + " strided records of " + std::to_string(kRecord) +
              " B (" + std::to_string(logical) +
              " B stored, against 105 MiB L3), uncompressed index, read back in seeded order in " +
              std::to_string(kChunk) + " B chunks, " + std::to_string(kOss) + " OSS";
  rep.setup_s = static_cast<double>(NowNs() - t_setup) * 1e-9;

  PhaseTimer timer;
  timer.start();
  log.span(Kind::sim_barrier, [&] { return barrier.arrive(0); });

  // Checkpoint: every writer rank's N-1 strided records.
  for (std::uint32_t r = 0; r < kWriterRanks; ++r) {
    auto w = log.op(Kind::plfs_open_write,
                    [&] { return pdsi::plfs::Writer::Open(be, "/ckpt", r, wopt, clock); });
    if (!w.ok()) {
      log.fail();
      continue;
    }
    for (const pdsi::workload::WriteOp& op : writes[r]) {
      auto data = std::span<const std::uint8_t>(content).subspan(op.offset, op.length);
      if (!log.op(Kind::plfs_write, [&] { return (*w)->write(op.offset, data); }).ok()) log.fail();
    }
    if (!log.op(Kind::plfs_close, [&] { return (*w)->close(); }).ok()) log.fail();
  }
  rep.host["mem.rss_after_write_mb"] = RssMb();
  log.span(Kind::sim_barrier, [&] { return barrier.arrive(0); });

  // Restart opens: cold merge, flatten, flat, cache miss, cache hit.
  double v0 = be.now();
  auto cold = log.op(Kind::plfs_open_cold,
                     [&] { return pdsi::plfs::Reader::Open(be, "/ckpt", cold_opt); });
  const double cold_s = be.now() - v0;
  if (!cold.ok() || (*cold)->size() != logical) log.fail();
  if (cold.ok() && rep.traced) {
    rep.counters["plfs.index_entries"] = static_cast<double>((*cold)->raw_entries().size());
    rep.counters["plfs.index_bytes_read"] = static_cast<double>((*cold)->index_bytes_read());
    rep.counters["plfs.droppings"] = static_cast<double>((*cold)->dropping_count());
  }
  cold = pdsi::Errc::invalid;  // release the cold snapshot
  if (!log.op(Kind::plfs_flatten, [&] { return pdsi::plfs::FlattenIndex(be, "/ckpt", flat_opt); }).ok()) {
    log.fail();
  }
  v0 = be.now();
  auto flat = log.op(Kind::plfs_open_flat,
                     [&] { return pdsi::plfs::Reader::Open(be, "/ckpt", flat_opt); });
  const double flat_s = be.now() - v0;
  if (!flat.ok() || (*flat)->size() != logical) log.fail();
  flat = pdsi::Errc::invalid;
  auto fill = log.op(Kind::plfs_open_fill,
                     [&] { return pdsi::plfs::Reader::Open(be, "/ckpt", cached_opt); });
  auto hit = log.op(Kind::plfs_open_cached,
                    [&] { return pdsi::plfs::Reader::Open(be, "/ckpt", cached_opt); });
  if (!fill.ok() || !hit.ok() || cache.hits() != 1 || cache.misses() != 1) log.fail();
  rep.host["mem.rss_after_open_mb"] = RssMb();

  // Full read-back through the cache-hit reader, every byte checked.
  v0 = be.now();
  std::uint64_t verified = 0;
  if (hit.ok()) {
    pdsi::plfs::Reader& reader = **hit;
    for (const std::uint64_t off : chunks) {
      const std::uint64_t want = std::min(kChunk, logical - off);
      auto out = std::span(buf).first(want);
      auto got = log.op(Kind::plfs_read, [&] { return reader.read(off, out); });
      if (!got.ok() || *got != want || std::memcmp(out.data(), content.data() + off, want) != 0) {
        log.fail();
        continue;
      }
      verified += want;
    }
  }
  const double read_s = be.now() - v0;
  // Release both cached-mode readers, closing the data handles they hold.
  log.op(Kind::plfs_reader_close, [&] {
    hit = pdsi::Errc::invalid;
    fill = pdsi::Errc::invalid;
    return 0;
  });
  log.span(Kind::sim_barrier, [&] { return barrier.arrive(0); });
  timer.stop(rep);
  if (verified != logical) log.fail();
  sched.finish(0);
  rep.absorb(log);

  rep.virt["restart.virtual_open_cold_s"] = cold_s;
  rep.virt["restart.virtual_open_flat_s"] = flat_s;
  rep.virt["restart.virtual_read_mbs"] = static_cast<double>(logical) / read_s / 1e6;
  if (rep.traced) {
    CollectPfsCounters(reg, {&cluster}, rep);
    rep.counters["plfs.index_cache_hit_ratio"] =
        static_cast<double>(cache.hits()) / static_cast<double>(cache.hits() + cache.misses());
  }
}

}  // namespace perfbench
