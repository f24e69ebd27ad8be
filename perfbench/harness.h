// Shared machinery of the host-cost benchmark: the host clock, per-thread
// op logs with optional spans, the timing Backend decorator that records
// PLFS's calls into the PFS, and the per-repetition result record.
//
// Every timed op is one outermost public call into the stack (PfsClient,
// plfs::Writer, plfs::Reader, plfs free functions). Spans are recorded
// only in traced repetitions, from this benchmark's own files: a root span
// around each op, and child spans around each Backend call a PLFS op makes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "pdsi/obs/obs.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/plfs/backend.h"
#include "pdsi/rpc/engine.h"

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// What a span timed. The name's prefix is its layer.
enum class Kind : std::uint8_t {
  pfs_create,
  pfs_open,
  pfs_close,
  pfs_stat,
  pfs_readdir,
  pfs_rename,
  pfs_unlink,
  pfs_write,
  pfs_read,
  pfs_mkdir,
  pfs_other,  ///< Backend size/fsync/compute
  plfs_open_write,
  plfs_write,
  plfs_close,
  plfs_open_cold,
  plfs_open_flat,
  plfs_open_fill,    ///< cached-mode open that misses and fills the cache
  plfs_open_cached,  ///< cached-mode open served from the cache
  plfs_flatten,
  plfs_read,
  plfs_reader_close,  ///< releasing a Reader closes its data handles
  plfs_stat,
  sim_barrier,
  count
};

const char* KindName(Kind k);
inline bool IsPlfs(Kind k) {
  return k >= Kind::plfs_open_write && k <= Kind::plfs_stat;
}

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint32_t op = 0;      ///< shared by an op's root span and its children
  Kind kind = Kind::count;
};

/// One thread's record of what it issued: the host latency of every op,
/// its failures and, when traced, its spans. Single-threaded by design:
/// each rank thread owns one, so recording takes no lock.
class ThreadLog {
 public:
  explicit ThreadLog(bool traced) : traced_(traced) {}

  /// Times `fn`, one outermost public call, as one client op.
  template <typename F>
  auto op(Kind k, F&& fn) {
    const std::uint64_t t0 = NowNs();
    const std::int32_t s = open(k, t0, true);
    auto r = fn();
    const std::uint64_t t1 = NowNs();
    close(s, t1);
    lat_ns.push_back(t1 - t0);
    return r;
  }

  /// Records a span around `fn` without counting an op: a call nested in
  /// an op (PLFS's Backend calls) or a barrier arrival. Untraced, it only
  /// calls `fn`.
  template <typename F>
  auto span(Kind k, F&& fn) {
    if (!traced_) return fn();
    const std::int32_t s = open(k, NowNs(), stack_.empty());
    auto r = fn();
    close(s, NowNs());
    return r;
  }

  /// Counts a failed op (error status, wrong bytes, reference mismatch).
  void fail() { ++failed; }

  std::vector<std::uint64_t> lat_ns;
  std::uint64_t failed = 0;
  std::vector<Span> spans;
  /// Backend calls the TimingBackend forwarded, counted apart from spans.
  std::uint64_t backend_calls = 0;

 private:
  std::int32_t open(Kind k, std::uint64_t t0, bool new_op) {
    if (!traced_) return -1;
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    const std::uint32_t op = new_op || parent < 0
                                 ? next_op_++
                                 : spans[static_cast<std::size_t>(parent)].op;
    spans.push_back({t0, 0, parent, op, k});
    stack_.push_back(static_cast<std::int32_t>(spans.size() - 1));
    return stack_.back();
  }
  void close(std::int32_t s, std::uint64_t t1) {
    if (s < 0) return;
    spans[static_cast<std::size_t>(s)].end_ns = t1;
    stack_.pop_back();
  }

  bool traced_;
  std::vector<std::int32_t> stack_;
  std::uint32_t next_op_ = 0;
};

/// Backend decorator that records a child span around every call PLFS
/// makes into the backend below it, and counts the calls apart from the
/// spans. Used only in traced repetitions.
class TimingBackend final : public pdsi::plfs::Backend {
 public:
  TimingBackend(pdsi::plfs::Backend& inner, ThreadLog& log)
      : inner_(inner), log_(log) {}

  /// Counts and times one forwarded call (defined first: its return type
  /// is deduced).
  template <typename F>
  auto call(Kind k, F&& fn) {
    ++log_.backend_calls;
    return log_.span(k, fn);
  }

  pdsi::Status mkdir(const std::string& path) override {
    return call(Kind::pfs_mkdir, [&] { return inner_.mkdir(path); });
  }
  pdsi::Result<pdsi::plfs::BackendHandle> create(const std::string& path) override {
    return call(Kind::pfs_create, [&] { return inner_.create(path); });
  }
  pdsi::Result<pdsi::plfs::BackendHandle> open(const std::string& path) override {
    return call(Kind::pfs_open, [&] { return inner_.open(path); });
  }
  pdsi::Status write(pdsi::plfs::BackendHandle h, std::uint64_t off,
                     std::span<const std::uint8_t> data) override {
    return call(Kind::pfs_write, [&] { return inner_.write(h, off, data); });
  }
  pdsi::Result<std::size_t> read(pdsi::plfs::BackendHandle h, std::uint64_t off,
                                 std::span<std::uint8_t> out) override {
    return call(Kind::pfs_read, [&] { return inner_.read(h, off, out); });
  }
  pdsi::Result<std::uint64_t> size(pdsi::plfs::BackendHandle h) override {
    return call(Kind::pfs_other, [&] { return inner_.size(h); });
  }
  pdsi::Status fsync(pdsi::plfs::BackendHandle h) override {
    return call(Kind::pfs_other, [&] { return inner_.fsync(h); });
  }
  pdsi::Status close(pdsi::plfs::BackendHandle h) override {
    return call(Kind::pfs_close, [&] { return inner_.close(h); });
  }
  pdsi::Result<std::uint64_t> stat_size(const std::string& path) override {
    return call(Kind::pfs_stat, [&] { return inner_.stat_size(path); });
  }
  pdsi::Result<std::vector<std::string>> readdir(const std::string& path) override {
    return call(Kind::pfs_readdir, [&] { return inner_.readdir(path); });
  }
  pdsi::Status unlink(const std::string& path) override {
    return call(Kind::pfs_unlink, [&] { return inner_.unlink(path); });
  }
  pdsi::Status rename(const std::string& from, const std::string& to) override {
    return call(Kind::pfs_rename, [&] { return inner_.rename(from, to); });
  }
  pdsi::Result<bool> is_dir(const std::string& path) override {
    return call(Kind::pfs_stat, [&] { return inner_.is_dir(path); });
  }
  pdsi::Result<bool> exists(const std::string& path) override {
    return call(Kind::pfs_stat, [&] { return inner_.exists(path); });
  }
  void compute(double seconds) override {
    call(Kind::pfs_other, [&] {
      inner_.compute(seconds);
      return 0;
    });
  }
  double now() const override { return inner_.now(); }

 private:
  pdsi::plfs::Backend& inner_;
  ThreadLog& log_;
};

/// One repetition of a workload: set-up, the timed phase, then checks.
struct Rep {
  // Inputs.
  std::uint64_t seed = 0;
  bool traced = false;

  // Host cost.
  double setup_s = 0.0;  ///< inputs, cluster and namespace pre-population
  double timed_s = 0.0;  ///< wall time of the timed phase
  double user_s = 0.0;   ///< getrusage deltas over the timed phase
  double sys_s = 0.0;
  double vcsw = 0.0;
  double ivcsw = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t backend_calls = 0;  ///< TimingBackend's own count (traced reps)
  std::vector<std::uint64_t> lat_ns;  ///< freed once the quantiles below are taken
  double op_p50_us = 0.0;
  double op_p99_us = 0.0;
  double calib_s = 0.0;  ///< the calibration kernel's time right after this repetition
  std::vector<Span> spans;  ///< every thread's spans (traced reps)

  /// Virtual-time answers: must repeat bit for bit in every repetition.
  std::map<std::string, double> virt;
  /// Exact counters of the program (traced reps, which pass an
  /// obs::Context): must repeat bit for bit across traced repetitions.
  std::map<std::string, double> counters;
  /// Host-side layer values that vary run to run (resident memory).
  std::map<std::string, double> host;
  /// The workload's stated input sizes, for the report.
  std::string sizes;

  /// Folds a finished thread's log into this repetition.
  void absorb(ThreadLog& log);
};

/// Brackets a timed phase with the wall clock and getrusage.
class PhaseTimer {
 public:
  void start();
  void stop(Rep& rep) const;

 private:
  std::uint64_t t0_ = 0;
  double user0_ = 0.0, sys0_ = 0.0, vcsw0_ = 0.0, ivcsw0_ = 0.0;
};

/// Current resident set size in MiB (/proc/self/statm).
double RssMb();

/// Reads the program's own exact counters after a traced repetition:
/// the obs::Registry instruments and accessors of the given clusters.
void CollectPfsCounters(pdsi::obs::Registry& reg,
                        const std::vector<pdsi::pfs::PfsCluster*>& clusters, Rep& rep);
/// Adds one client's request-engine accounting to rep.counters.
void CollectRpcStats(const pdsi::rpc::EngineStats& s, Rep& rep);

/// The workloads. Each runs one repetition: set-up (timed into
/// rep.setup_s), the timed phase, and its correctness oracle.
void RunCkptN1(Rep& rep);
void RunMdStorm(Rep& rep);
void RunRestart(Rep& rep);

/// Rank threads each workload starts (refused if above the host's CPUs).
inline constexpr std::uint32_t kCkptRanks = 4;

/// Deterministic 64-bit mixer for seeded input generation.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
