// GIGA+ tests: bitmap addressing algebra, split mechanics, placement
// invariants under growth, stale-client correction, and create scaling.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "pdsi/giga/giga.h"

namespace pdsi::giga {
namespace {

TEST(Bitmap, PartitionZeroAlwaysExists) {
  Bitmap b;
  EXPECT_TRUE(b.test(0));
  EXPECT_EQ(b.partition_for(0xdeadbeef), 0u);
}

TEST(Bitmap, AddressingWalksDownToExisting) {
  Bitmap b;
  b.set(1);  // depth 1: partitions 0,1
  b.set(3);  // partition 1 split at depth 1 -> 3
  // hash suffix ...11 -> 3; ...01 -> 1; ...0 -> 0.
  EXPECT_EQ(b.partition_for(0b111), 3u);
  EXPECT_EQ(b.partition_for(0b101), 1u);
  // Suffix 0b10 addresses partition 2, which does not exist; the walk
  // falls back to depth 1 (suffix 0b0) -> partition 0.
  EXPECT_EQ(b.partition_for(0b110), 0u);
}

TEST(Bitmap, MergeIsUnion) {
  Bitmap a, b;
  a.set(1);
  b.set(2);
  a.merge(b);
  EXPECT_TRUE(a.test(1));
  EXPECT_TRUE(a.test(2));
  EXPECT_EQ(a.highest(), 2u);
}

TEST(Bitmap, HighestAcrossWords) {
  Bitmap b;
  b.set(130);
  EXPECT_EQ(b.highest(), 130u);
  EXPECT_TRUE(b.test(130));
  EXPECT_FALSE(b.test(129));
}

TEST(PartitionMath, DepthAndChild) {
  EXPECT_EQ(PartitionDepth(0), 0u);
  EXPECT_EQ(PartitionDepth(1), 1u);
  EXPECT_EQ(PartitionDepth(2), 2u);
  EXPECT_EQ(PartitionDepth(3), 2u);
  EXPECT_EQ(PartitionDepth(4), 3u);
  EXPECT_EQ(SplitChild(0, 0), 1u);
  EXPECT_EQ(SplitChild(0, 1), 2u);
  EXPECT_EQ(SplitChild(1, 1), 3u);
  EXPECT_EQ(SplitChild(3, 2), 7u);
}

TEST(PartitionMath, RadixBoundaryIsShiftSafe) {
  // Radix depth 31..32 is where a 32-bit `1u << d` would be undefined;
  // the helpers must stay exact there.
  EXPECT_EQ(PartitionDepth(0x40000000u), 31u);
  EXPECT_EQ(PartitionDepth(0x7fffffffu), 31u);
  EXPECT_EQ(PartitionDepth(0x80000000u), 32u);
  EXPECT_EQ(PartitionDepth(0xffffffffu), 32u);
  // The last splittable level: p < 2^31 splits to p + 2^31.
  EXPECT_EQ(SplitChild(5u, 31u), 5u + 0x80000000u);
  EXPECT_EQ(SplitChild(0x7fffffffu, 31u), 0xffffffffu);
}

TEST(Bitmap, DeepPartitionAddressing) {
  // A partition high enough that deriving the radix from it exercises
  // multi-word scans and 64-bit masks in partition_for.
  Bitmap b;
  const std::uint32_t deep = 1u << 20;
  b.set(deep);
  EXPECT_EQ(b.highest(), deep);
  // A hash whose low 21 bits address exactly `deep` lands there; one
  // whose candidate is absent walks down to partition 0.
  EXPECT_EQ(b.partition_for(deep), deep);
  EXPECT_EQ(b.partition_for(deep | (1ULL << 40)), deep);
  EXPECT_EQ(b.partition_for(0x2a), 0u);
}

// prefix + i, built with append: `"f" + std::to_string(i)` trips GCC 12's
// -Wrestrict false positive.
std::string Numbered(const char* prefix, int i) {
  return std::string(prefix).append(std::to_string(i));
}

TEST(HashName, SpreadsShortNames) {
  std::set<std::uint64_t> low3;
  for (int i = 0; i < 64; ++i) {
    low3.insert(HashName(Numbered("f", i)) & 7);
  }
  EXPECT_EQ(low3.size(), 8u);  // all 8 suffixes hit
}

GigaParams SmallParams(std::uint32_t servers, std::uint32_t threshold) {
  GigaParams p;
  p.num_servers = servers;
  p.split_threshold = threshold;
  return p;
}

TEST(GigaDirectory, SplitsAsItGrowsAndKeepsInvariant) {
  GigaDirectory dir(SmallParams(4, 50));
  sim::VirtualScheduler sched(1);
  GigaClient client(dir, sched, 0);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(client.create(Numbered("file", i)).ok());
  }
  sched.finish(0);
  EXPECT_EQ(dir.total_entries(), 2000u);
  EXPECT_GT(dir.splits(), 10u);
  EXPECT_GT(dir.partitions(), 16u);
  EXPECT_TRUE(dir.check_placement_invariant());
}

TEST(GigaDirectory, DuplicateCreateReturnsExists) {
  GigaDirectory dir(SmallParams(2, 100));
  sim::VirtualScheduler sched(1);
  GigaClient client(dir, sched, 0);
  EXPECT_TRUE(client.create("x").ok());
  auto st = client.create("x");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.error(), Errc::exists);
  sched.finish(0);
}

TEST(GigaDirectory, LookupFindsAllAfterSplits) {
  GigaDirectory dir(SmallParams(4, 40));
  sim::VirtualScheduler sched(1);
  GigaClient client(dir, sched, 0);
  for (int i = 0; i < 500; ++i) client.create(Numbered("f", i));
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(client.lookup(Numbered("f", i)).ok()) << i;
  }
  auto st = client.lookup("missing");
  EXPECT_EQ(st.error(), Errc::not_found);
  sched.finish(0);
}

TEST(GigaClient, StaleClientsCorrectLazily) {
  GigaDirectory dir(SmallParams(8, 30));
  sim::VirtualScheduler sched(2);
  // Client A grows the directory; client B starts stale and must catch up
  // via addressing corrections only.
  std::uint64_t b_retries = 0;
  std::thread ta([&] {
    GigaClient a(dir, sched, 0);
    for (int i = 0; i < 1000; ++i) a.create(Numbered("a", i));
    sched.finish(0);
  });
  std::thread tb([&] {
    GigaClient b(dir, sched, 1);
    for (int i = 0; i < 1000; ++i) b.create(Numbered("b", i));
    b_retries = b.stale_retries();
    sched.finish(1);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(dir.total_entries(), 2000u);
  EXPECT_TRUE(dir.check_placement_invariant());
  EXPECT_GT(b_retries, 0u);
  // Retries are rare relative to operations (bounded by split count, not
  // by operation count) — the GIGA+ claim that stale caches are cheap.
  EXPECT_LT(b_retries, 200u);
}

TEST(GigaScaling, MoreServersMoreCreateThroughput) {
  auto run = [](std::uint32_t servers) {
    GigaParams p = SmallParams(servers, 200);
    p.server_op_s = 200e-6;
    GigaDirectory dir(p);
    // Metarates-style: many more clients than servers so server capacity,
    // not client round-trip latency, is the limiter.
    constexpr int kClients = 48;
    constexpr int kPerClient = 300;
    sim::VirtualScheduler sched(kClients);
    std::vector<std::thread> threads;
    std::mutex mu;
    double finish = 0.0;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        GigaClient client(dir, sched, c);
        for (int i = 0; i < kPerClient; ++i) {
          client.create(Numbered("c", c).append("_").append(std::to_string(i)));
        }
        std::lock_guard<std::mutex> lk(mu);
        finish = std::max(finish, sched.now(c));
        sched.finish(c);
      });
    }
    for (auto& t : threads) t.join();
    return kClients * kPerClient / finish;  // creates per second
  };
  const double one = run(1);
  const double four = run(4);
  const double sixteen = run(16);
  EXPECT_GT(four / one, 2.0);
  EXPECT_GT(sixteen / four, 1.8);
}

}  // namespace
}  // namespace pdsi::giga
