// Fig. 7 — GIGA+ directory create throughput vs number of servers.
//
// Paper: GIGA+ (UCAR Metarates-style create storm into one huge
// directory) scales file-creates/sec with metadata servers because
// partitions split without synchronisation and clients correct stale
// addressing lazily; a conventional single metadata server is flat.
#include <iostream>
#include <mutex>
#include <thread>

#include "bench_util.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/giga/giga.h"

using namespace pdsi;

namespace {

struct RunResult {
  double creates_per_second;        ///< whole run, including growth phase
  double steady_creates_per_second; ///< second half (directory fully split)
  std::uint64_t splits;
  std::uint64_t partitions;
  std::uint64_t stale_retries;
};

RunResult RunMetarates(std::uint32_t servers, int clients, int per_client) {
  giga::GigaParams p;
  p.num_servers = servers;
  p.split_threshold = 800;
  p.server_op_s = 200e-6;
  giga::GigaDirectory dir(p);
  sim::VirtualScheduler sched(clients);
  std::vector<std::thread> threads;
  std::mutex mu;
  double finish = 0.0;
  double half = 0.0;  // latest time any client crossed its midpoint
  std::uint64_t retries = 0;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      giga::GigaClient client(dir, sched, c);
      double my_half = 0.0;
      for (int i = 0; i < per_client; ++i) {
        // append, not "f" + ...: GCC 12 -Wrestrict false positive
        client.create(std::string("f")
                          .append(std::to_string(c))
                          .append("_")
                          .append(std::to_string(i)));
        if (i == per_client / 2) my_half = sched.now(c);
      }
      std::lock_guard<std::mutex> lk(mu);
      finish = std::max(finish, sched.now(c));
      half = std::max(half, my_half);
      retries += client.stale_retries();
      sched.finish(c);
    });
  }
  for (auto& t : threads) t.join();
  RunResult r;
  r.creates_per_second = clients * per_client / finish;
  r.steady_creates_per_second =
      clients * (per_client - per_client / 2 - 1) / (finish - half);
  r.splits = dir.splits();
  r.partitions = dir.partitions();
  r.stale_retries = retries;
  return r;
}

}  // namespace

int main() {
  bench::Header("Fig. 7: GIGA+ create scaling (Metarates-style storm)",
                "creates/sec grows near-linearly with servers; client "
                "addressing corrections stay rare");

  constexpr int kClients = 64;
  constexpr int kPerClient = 400;
  Table t({"servers", "creates/s", "steady creates/s", "steady scaling",
           "splits", "partitions", "stale retries", "retries/op"});
  double base = 0.0;
  for (std::uint32_t servers : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const auto r = RunMetarates(servers, kClients, kPerClient);
    if (servers == 1) base = r.steady_creates_per_second;
    t.row({std::to_string(servers), FormatCount(r.creates_per_second),
           FormatCount(r.steady_creates_per_second),
           FormatDouble(r.steady_creates_per_second / base, 2) + "x",
           std::to_string(r.splits), std::to_string(r.partitions),
           std::to_string(r.stale_retries),
           FormatDouble(static_cast<double>(r.stale_retries) /
                            (kClients * kPerClient), 4)});
  }
  t.print(std::cout);
  bench::Note("shape check: near-linear scaling until the 64 clients "
              "saturate; retries bounded by split count, not op count.");
  return 0;
}
