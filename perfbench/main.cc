// perfbench: host cost of running the simulated PLFS/PFS stack.
//
//   perfbench --workload <ckpt_n1|md_storm|restart> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Binds itself to one CPU, then repeats the workload (fresh inputs,
// cluster and namespace each time) until --seconds of host time have
// passed, timing a calibration kernel after each repetition. It checks
// every repetition's outputs and prints one JSON object as its last line
// of output. Host times are medians over the repetitions after the first,
// scaled to the reference host speed by the calibration. With --trace 0
// it reports the end-to-end metrics; with --trace 1 it alternates traced
// and untraced repetitions and reports the per-layer metrics, including
// the tracing overhead between the two.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {

const char* KindName(Kind k) {
  static constexpr const char* kNames[] = {
      "pfs.create",     "pfs.open",        "pfs.close",      "pfs.stat",
      "pfs.readdir",    "pfs.rename",      "pfs.unlink",     "pfs.write",
      "pfs.read",       "pfs.mkdir",       "pfs.other",      "plfs.open_write",
      "plfs.write",     "plfs.close",      "plfs.open_cold", "plfs.open_flat",
      "plfs.open_fill", "plfs.open_cached", "plfs.flatten",  "plfs.read",
      "plfs.reader_close", "plfs.stat",    "sim.barrier"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(Kind::count));
  return kNames[static_cast<std::size_t>(k)];
}

void Rep::absorb(ThreadLog& log) {
  const auto base = static_cast<std::int32_t>(spans.size());
  for (Span s : log.spans) {
    if (s.parent >= 0) s.parent += base;
    spans.push_back(s);
  }
  lat_ns.insert(lat_ns.end(), log.lat_ns.begin(), log.lat_ns.end());
  ops += log.lat_ns.size();
  failed += log.failed;
  backend_calls += log.backend_calls;
}

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

rusage SelfUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

}  // namespace

void PhaseTimer::start() {
  const rusage ru = SelfUsage();
  user0_ = Seconds(ru.ru_utime);
  sys0_ = Seconds(ru.ru_stime);
  vcsw0_ = static_cast<double>(ru.ru_nvcsw);
  ivcsw0_ = static_cast<double>(ru.ru_nivcsw);
  t0_ = NowNs();
}

void PhaseTimer::stop(Rep& rep) const {
  const std::uint64_t t1 = NowNs();
  const rusage ru = SelfUsage();
  rep.timed_s = static_cast<double>(t1 - t0_) * 1e-9;
  rep.user_s = Seconds(ru.ru_utime) - user0_;
  rep.sys_s = Seconds(ru.ru_stime) - sys0_;
  rep.vcsw = static_cast<double>(ru.ru_nvcsw) - vcsw0_;
  rep.ivcsw = static_cast<double>(ru.ru_nivcsw) - ivcsw0_;
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0.0, pages_resident = 0.0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <ckpt_n1|md_storm|restart> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n";
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
      have_seconds = a.seconds > 0.0;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      Usage("unknown argument " + k);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds) {
    Usage("--workload, --seed and a positive --seconds are required");
  }
  return a;
}

std::uint32_t HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::uint32_t>(CPU_COUNT(&set));
}

/// Binds the process, and every thread it starts later, to the highest
/// CPU it may run on. Returns that CPU, or -1 if it could not.
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = CPU_SETSIZE - 1;
  while (cpu >= 0 && !CPU_ISSET(cpu, &set)) --cpu;
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of nanosecond samples, in microseconds.
double QuantileUs(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) * 1e-3;
}

/// Times 200 000 lookups in an ordered map of about 1 MiB: pointer
/// chasing through the L2 cache, the kind of work the single-actor
/// workloads' host cost is made of.
double LookupCalibS() {
  static const std::map<std::uint64_t, std::uint64_t> table = [] {
    std::map<std::uint64_t, std::uint64_t> t;
    for (std::uint64_t k = 0; k < 16384; ++k) t.emplace(Mix64(k), k);
    return t;
  }();
  std::uint64_t hits = 0;
  // The repetition before has evicted the table: warm it again first.
  for (std::uint64_t k = 0; k < 16384; ++k) hits += table.count(Mix64(k));
  const std::uint64_t t0 = NowNs();
  for (std::uint64_t k = 0; k < 200000; ++k) hits += table.count(Mix64(k % 32768));
  const std::uint64_t t1 = NowNs();
  if (hits == 0) std::abort();  // uses the lookups, so none is optimised away
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Times 3000 round trips between two threads through one mutex and
/// condition variable, on the CPU the process is bound to: the futex
/// wake-ups and context switches that make up ckpt_n1's host cost.
double HandOffCalibS() {
  std::mutex mu;
  std::condition_variable cv;
  bool theirs = false;
  constexpr int kRounds = 3000;
  std::thread other([&] {
    for (int i = 0; i < kRounds; ++i) {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return theirs; });
      theirs = false;
      cv.notify_all();
    }
  });
  const std::uint64_t t0 = NowNs();
  for (int i = 0; i < kRounds; ++i) {
    std::unique_lock<std::mutex> lk(mu);
    theirs = true;
    cv.notify_all();
    cv.wait(lk, [&] { return !theirs; });
  }
  const std::uint64_t t1 = NowNs();
  other.join();
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// A kernel timed after every repetition, to tell how fast the shared host
/// runs the benchmark at that moment. The host's other tenants slow cache-
/// and kernel-bound work by up to half within minutes while an ALU loop
/// barely moves, so each workload is paired with a kernel of the kind of
/// work it does. Both are this benchmark's own code: no change to the
/// program moves them. Host times are reported as if every repetition had
/// run at the reference speed: scaled by `reference_s` over the kernel's
/// time after that repetition.
struct Calibration {
  double (*run)();
  double reference_s;  ///< the kernel's time on one 2.0 GHz Xeon vCPU in a quiet spell
};

constexpr Calibration kLookupCalib{LookupCalibS, 0.030};
constexpr Calibration kHandOffCalib{HandOffCalibS, 0.018};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer host metrics computed from the traced repetitions' spans.
/// Per-kind latencies come from root spans only, so `pfs.<op>` times
/// direct PfsClient calls; the Backend calls PLFS makes are pooled apart.
class SpanStats {
 public:
  /// Folds one repetition's spans in; `scale` converts its host times to
  /// the reference host speed (self time is a ratio and needs none).
  void add(const std::vector<Span>& spans, double scale) {
    auto scaled = [scale](std::uint64_t ns) {
      return static_cast<std::uint64_t>(static_cast<double>(ns) * scale + 0.5);
    };
    // A child span opens and closes on its parent's thread, after its
    // previous sibling and inside the parent, so a PLFS op's self time is
    // its duration minus the sum of its Backend children's durations.
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      const std::uint64_t d = s.end_ns - s.start_ns;
      ++count_;
      if (s.parent < 0) {
        by_kind_[static_cast<std::size_t>(s.kind)].push_back(scaled(d));
        continue;
      }
      const auto p = static_cast<std::size_t>(s.parent);
      if (!IsPlfs(spans[p].kind) || spans[p].parent >= 0) continue;
      backend_lat_.push_back(scaled(d));
      child_ns[p] += d;
      ++backend_calls_;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0 || !IsPlfs(spans[i].kind)) continue;
      const std::uint64_t d = spans[i].end_ns - spans[i].start_ns;
      plfs_ns_ += d;
      plfs_self_ns_ += d - child_ns[i];
      ++plfs_ops_;
    }
  }

  double p(Kind k, double q) { return QuantileUs(by_kind_[static_cast<std::size_t>(k)], q); }
  /// Host time of one Backend call made inside a PLFS op.
  double backend_p(double q) { return QuantileUs(backend_lat_, q); }
  double self_frac() const {
    return plfs_ns_ ? static_cast<double>(plfs_self_ns_) / static_cast<double>(plfs_ns_) : 0.0;
  }
  double backend_calls_per_op() const {
    return plfs_ops_ ? static_cast<double>(backend_calls_) / static_cast<double>(plfs_ops_) : 0.0;
  }
  /// Backend spans found under a PLFS root span.
  std::uint64_t backend_calls() const { return backend_calls_; }
  std::uint64_t count() const { return count_; }

 private:
  std::vector<std::uint64_t> by_kind_[static_cast<std::size_t>(Kind::count)];
  std::vector<std::uint64_t> backend_lat_;
  std::uint64_t count_ = 0;
  std::uint64_t plfs_ns_ = 0, plfs_self_ns_ = 0;
  std::uint64_t plfs_ops_ = 0, backend_calls_ = 0;
};

double Get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  const std::uint64_t base = spans.empty() ? 0 : spans.front().start_ns;
  out << "name\tstart_ns\tend_ns\tparent\top\n";
  for (const Span& s : spans) {
    out << KindName(s.kind) << '\t' << s.start_ns - base << '\t' << s.end_ns - base
        << '\t' << s.parent << '\t' << s.op << '\n';
  }
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);

  void (*run)(Rep&) = nullptr;
  std::uint32_t rank_threads = 1;
  Calibration calib = kLookupCalib;
  if (args.workload == "ckpt_n1") {
    run = RunCkptN1;
    rank_threads = kCkptRanks;
    calib = kHandOffCalib;
  } else if (args.workload == "md_storm") {
    run = RunMdStorm;
  } else if (args.workload == "restart") {
    run = RunRestart;
  } else {
    Usage("unknown workload " + args.workload);
  }
  const std::uint32_t cpus = HostCpus();
  if (rank_threads > cpus) {
    std::cerr << "perfbench: " << args.workload << " runs " << rank_threads
              << " rank threads but only " << cpus
              << " CPUs are available; refusing to measure the OS scheduler\n";
    return 2;
  }
  // The scheduler's actors run one at a time, so one CPU serves every rank
  // thread. Spread over CPUs, each hand-off would wake an idle virtual CPU,
  // and the shared host takes from tens of microseconds to milliseconds to
  // run it again: the benchmark would time the host, not the hand-off.
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::cerr << "perfbench: cannot bind to one CPU\n";
    return 2;
  }

  // Repeat until the time is up, with enough repetitions to compare
  // virtual-time answers and take medians. The first repetition warms the
  // caches and the allocator: it is checked like every other, but no host
  // time is taken from it. Traced runs then alternate traced and untraced
  // repetitions, so both see the same conditions.
  constexpr std::size_t kWarmupReps = 1;
  constexpr std::size_t kMinReps = kWarmupReps + 4;
  constexpr double kHardLimitS = 150.0;
  std::vector<Rep> reps;
  SpanStats ss;                  // every traced repetition's spans, folded
  std::vector<Span> last_spans;  // the last traced repetition's, for output
  double peak_rss_mb = 0.0;
  std::uint64_t samples = 0, min_rep_samples = 0;
  const std::uint64_t t_begin = NowNs();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = static_cast<double>(NowNs() - t_begin) * 1e-9;
    if ((elapsed >= args.seconds && reps.size() >= kMinReps) || elapsed >= kHardLimitS) break;
    // Hand the previous repetition's freed heap back to the OS, so each
    // repetition's resident memory is its own.
    malloc_trim(0);
    Rep rep;
    rep.seed = args.seed;
    rep.traced = args.trace && i >= kWarmupReps && (i - kWarmupReps) % 2 == 0;
    run(rep);
    rep.calib_s = calib.run();
    if (rep.traced) {
      ss.add(rep.spans, calib.reference_s / rep.calib_s);
      last_spans = std::move(rep.spans);
      rep.spans.clear();
    }
    // Each repetition holds 30 000+ op samples, so every p99 below has
    // hundreds of samples beyond it.
    rep.op_p50_us = QuantileUs(rep.lat_ns, 0.50);
    rep.op_p99_us = QuantileUs(rep.lat_ns, 0.99);
    if (i >= kWarmupReps && !rep.traced) {
      samples += rep.lat_ns.size();
      min_rep_samples = min_rep_samples ? std::min<std::uint64_t>(min_rep_samples, rep.lat_ns.size())
                                        : rep.lat_ns.size();
    }
    std::vector<std::uint64_t>().swap(rep.lat_ns);
    reps.push_back(std::move(rep));
    // Peak memory of one fresh repetition: later repetitions reuse the
    // heap, so the process-lifetime peak would grow with their number.
    if (reps.size() == 1) peak_rss_mb = static_cast<double>(SelfUsage().ru_maxrss) / 1024.0;
  }

  // Correctness: per-op failures, plus every virtual-time answer and
  // program counter identical to the first repetition that has it.
  std::uint64_t attempted = 0, failed = 0;
  const Rep* first_traced = nullptr;
  for (const Rep& r : reps) {
    attempted += r.ops;
    failed += r.failed;
    if (r.traced && !first_traced) first_traced = &r;
  }
  std::vector<std::string> mismatches;
  for (const Rep& r : reps) {
    for (const auto& [k, v] : reps.front().virt) {
      if (Get(r.virt, k) != v) mismatches.push_back(k);
    }
    if (r.traced) {
      for (const auto& [k, v] : first_traced->counters) {
        if (Get(r.counters, k) != v) mismatches.push_back(k);
      }
    }
  }
  failed += mismatches.size();

  // Host metrics come from the repetitions after the warm-up: untraced
  // ones for the end-to-end metrics, traced ones for the spans.
  std::vector<const Rep*> plain, traced;
  for (std::size_t i = kWarmupReps; i < reps.size(); ++i) {
    (reps[i].traced ? traced : plain).push_back(&reps[i]);
  }

  // Each host metric is the median of its per-repetition values: a slow
  // spell of the shared host moves a few repetitions, not the median. The
  // host times are scaled to the reference host speed by the calibration
  // that follows each repetition, which removes the slower drifts.
  auto scale = [&](const Rep& r) { return calib.reference_s / r.calib_s; };
  auto median_of = [](const std::vector<const Rep*>& rs, auto f) {
    std::vector<double> v;
    for (const Rep* r : rs) v.push_back(f(*r));
    return Median(v);
  };
  auto sum_of = [](const std::vector<const Rep*>& rs, auto field) {
    double total = 0.0;
    for (const Rep* r : rs) total += static_cast<double>(r->*field);
    return total;
  };
  const double ops_per_rep = median_of(plain, [](const Rep& r) { return double(r.ops); });

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"sim_ops_per_s",
         median_of(plain, [&](const Rep& r) { return r.ops / (r.timed_s * scale(r)); }), "1/s"},
        {"ops", ops_per_rep, "count"},
        {"op_p50_us", median_of(plain, [&](const Rep& r) { return r.op_p50_us * scale(r); }), "us"},
        {"op_p99_us", median_of(plain, [&](const Rep& r) { return r.op_p99_us * scale(r); }), "us"},
        {"cpu_us_per_op",
         median_of(plain, [&](const Rep& r) { return (r.user_s + r.sys_s) * 1e6 / r.ops * scale(r); }),
         "us"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"setup_s", median_of(plain, [&](const Rep& r) { return r.setup_s * scale(r); }), "s"},
    };
  } else {
    // Every Backend call the decorator forwarded must show up as a child
    // of a PLFS op; a call made outside one (a destructor after the op, a
    // lost span) would leave its time out of the PLFS accounting.
    if (sum_of(traced, &Rep::backend_calls) != static_cast<double>(ss.backend_calls())) {
      mismatches.push_back("plfs.backend_calls_outside_plfs_ops");
      ++failed;
    }
    const Rep& last = *traced.back();
    const auto& c = last.counters;
    auto timed = [&](const Rep& r) { return r.timed_s * scale(r); };
    const double untraced_s = median_of(plain, timed);
    const double traced_s = median_of(traced, timed);
    metrics = {
        {"sim.vcsw_per_op", sum_of(plain, &Rep::vcsw) / sum_of(plain, &Rep::ops), "count"},
        {"sim.ivcsw_per_op", sum_of(plain, &Rep::ivcsw) / sum_of(plain, &Rep::ops), "count"},
        {"sim.sys_cpu_frac",
         Ratio(sum_of(plain, &Rep::sys_s), sum_of(plain, &Rep::user_s) + sum_of(plain, &Rep::sys_s)),
         "fraction"},
        {"sim.barrier_us.p50", ss.p(Kind::sim_barrier, 0.50), "us"},
        {"sim.barrier_us.p99", ss.p(Kind::sim_barrier, 0.99), "us"},
    };
    const std::pair<const char*, Kind> pfs_ops[] = {
        {"create", Kind::pfs_create}, {"open", Kind::pfs_open},
        {"close", Kind::pfs_close},   {"stat", Kind::pfs_stat},
        {"readdir", Kind::pfs_readdir}, {"rename", Kind::pfs_rename},
        {"unlink", Kind::pfs_unlink}, {"write", Kind::pfs_write},
        {"read", Kind::pfs_read}};
    for (const auto& [name, kind] : pfs_ops) {
      const std::string base = std::string("pfs.") + name + "_us";
      metrics.push_back({base + ".p50", ss.p(kind, 0.50), "us"});
      metrics.push_back({base + ".p99", ss.p(kind, 0.99), "us"});
    }
    const std::vector<Metric> rest = {
        {"pfs.lock_conflicts", Get(c, "pfs.lock_conflicts"), "count"},
        {"pfs.lock_waits", Get(c, "pfs.lock_waits"), "count"},
        {"pfs.lock_wait_s.p50", Get(c, "pfs.lock_wait_s.p50"), "sim_s"},
        {"pfs.mds_stale_retries", Get(c, "pfs.mds_stale_retries"), "count"},
        {"mds.ops", Get(c, "mds.ops"), "count"},
        {"mds.splits", Get(c, "mds.splits"), "count"},
        {"mds.shard_ops_max_over_mean", Get(c, "mds.shard_ops_max_over_mean"), "ratio"},
        {"oss.ops", Get(c, "oss.ops"), "count"},
        {"oss.bytes_written", Get(c, "oss.bytes_written"), "bytes"},
        {"oss.bytes_read", Get(c, "oss.bytes_read"), "bytes"},
        {"storage.disk_busy_s", Get(c, "storage.disk_busy_s"), "sim_s"},
        {"rpc.submitted_per_op", Ratio(Get(c, "rpc.submitted"), Get(c, "rpc.client_ops")), "ratio"},
        {"rpc.messages_per_op", Ratio(Get(c, "rpc.messages"), Get(c, "rpc.client_ops")), "ratio"},
        {"rpc.window_stalls", Get(c, "rpc.window_stalls"), "count"},
        {"rpc.failures", Get(c, "rpc.failures"), "count"},
        {"plfs.write_us.p50", ss.p(Kind::plfs_write, 0.50), "us"},
        {"plfs.write_us.p99", ss.p(Kind::plfs_write, 0.99), "us"},
        {"plfs.close_us.p50", ss.p(Kind::plfs_close, 0.50), "us"},
        {"plfs.close_us.p99", ss.p(Kind::plfs_close, 0.99), "us"},
        {"plfs.open_cold_us", ss.p(Kind::plfs_open_cold, 0.50), "us"},
        {"plfs.open_flat_us", ss.p(Kind::plfs_open_flat, 0.50), "us"},
        {"plfs.open_cached_us", ss.p(Kind::plfs_open_cached, 0.50), "us"},
        {"plfs.flatten_us", ss.p(Kind::plfs_flatten, 0.50), "us"},
        {"plfs.read_us.p50", ss.p(Kind::plfs_read, 0.50), "us"},
        {"plfs.read_us.p99", ss.p(Kind::plfs_read, 0.99), "us"},
        {"plfs.backend_us.p50", ss.backend_p(0.50), "us"},
        {"plfs.backend_us.p99", ss.backend_p(0.99), "us"},
        {"plfs.self_frac", ss.self_frac(), "fraction"},
        {"plfs.backend_calls_per_op", ss.backend_calls_per_op(), "count"},
        {"plfs.index_entries", Get(c, "plfs.index_entries"), "count"},
        {"plfs.index_bytes_read", Get(c, "plfs.index_bytes_read"), "bytes"},
        {"plfs.droppings", Get(c, "plfs.droppings"), "count"},
        {"plfs.index_cache_hit_ratio", Get(c, "plfs.index_cache_hit_ratio"), "ratio"},
        {"mem.rss_after_write_mb",
         median_of(plain, [](const Rep& r) { return Get(r.host, "mem.rss_after_write_mb"); }),
         "MiB"},
        {"mem.rss_after_open_mb",
         median_of(plain, [](const Rep& r) { return Get(r.host, "mem.rss_after_open_mb"); }),
         "MiB"},
        {"ckpt.virtual_direct_mbs", Get(last.virt, "ckpt.virtual_direct_mbs"), "sim_MB/s"},
        {"ckpt.virtual_plfs_mbs", Get(last.virt, "ckpt.virtual_plfs_mbs"), "sim_MB/s"},
        {"ckpt.virtual_speedup", Get(last.virt, "ckpt.virtual_speedup"), "ratio"},
        {"md.virtual_ops_per_s", Get(last.virt, "md.virtual_ops_per_s"), "1/sim_s"},
        {"restart.virtual_open_cold_s", Get(last.virt, "restart.virtual_open_cold_s"), "sim_s"},
        {"restart.virtual_open_flat_s", Get(last.virt, "restart.virtual_open_flat_s"), "sim_s"},
        {"restart.virtual_read_mbs", Get(last.virt, "restart.virtual_read_mbs"), "sim_MB/s"},
        {"trace.overhead_frac", Ratio(traced_s - untraced_s, untraced_s), "fraction"},
        {"trace.spans_per_rep", Ratio(double(ss.count()), double(traced.size())), "count"},
        {"host.calib_ms", median_of(plain, [](const Rep& r) { return r.calib_s * 1e3; }), "ms"},
        {"host.raw_ops_per_s", median_of(plain, [](const Rep& r) { return r.ops / r.timed_s; }),
         "1/s"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    if (!args.spans_out.empty()) WriteSpans(args.spans_out, last_spans);
  }

  // Human-readable report, then the machine-readable last line.
  const Rep& r0 = reps.front();
  std::cout << "workload " << args.workload << " seed " << args.seed << ": "
            << r0.sizes << "\n";
  std::cout << "closed loop, " << rank_threads << " rank thread(s) bound to CPU " << cpu
            << " of " << cpus << "; " << reps.size() << " repetitions (" << traced.size()
            << " traced, " << kWarmupReps << " warm-up), " << samples
            << " untraced op samples after the warm-up, at least " << min_rep_samples
            << " per repetition\n";
  std::vector<double> rates;
  for (const Rep* r : plain) rates.push_back(r->ops / r->timed_s);
  std::sort(rates.begin(), rates.end());
  std::cout << "untraced repetitions' raw ops/s: min " << Num(rates.front()) << ", median "
            << Num(Median(rates)) << ", max " << Num(rates.back()) << "; calibration median "
            << Num(median_of(plain, [](const Rep& r) { return r.calib_s * 1e3; }))
            << " ms against the reference " << Num(calib.reference_s * 1e3)
            << " ms, by which the host times below are scaled\n";
  for (const auto& [k, v] : r0.virt) std::cout << "  " << k << " = " << Num(v) << "\n";
  std::cout << "error_rate " << Num(Ratio(double(failed), double(attempted))) << " ("
            << failed << " of " << attempted << ")\n";
  for (const auto& m : mismatches) std::cout << "  mismatch: " << m << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << Num(m.value) << " " << m.unit << "\n";
  }

  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
