// Tests for the deterministic virtual-time scheduler and the event queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "pdsi/sim/event_queue.h"
#include "pdsi/sim/virtual_time.h"

namespace pdsi::sim {
namespace {

TEST(VirtualScheduler, SingleActorAdvances) {
  VirtualScheduler s(1);
  s.advance(0, 1.5);
  s.advance(0, 2.5);
  EXPECT_DOUBLE_EQ(s.now(0), 4.0);
  s.finish(0);
  EXPECT_TRUE(s.all_finished());
}

// Actors performing interleaved reservations on one resource must observe
// a globally virtual-time-ordered admission sequence, independent of OS
// scheduling. Run the identical program twice and compare event orders.
std::vector<int> RunAdmissionOrder(unsigned jitter_seed) {
  VirtualScheduler sched(4);
  SimResource disk;
  std::vector<int> order;
  std::vector<std::thread> threads;
  for (int a = 0; a < 4; ++a) {
    threads.emplace_back([&, a] {
      // Stagger wall-clock starts to try to shake nondeterminism loose.
      std::this_thread::sleep_for(
          std::chrono::microseconds(((a + jitter_seed) % 4) * 200));
      for (int i = 0; i < 5; ++i) {
        sched.atomically(a, [&](double now) {
          order.push_back(a);
          // Different service times per actor => interleaved admissions.
          return disk.reserve(now, 0.001 * (a + 1));
        });
      }
      sched.finish(a);
    });
  }
  for (auto& t : threads) t.join();
  return order;
}

TEST(VirtualScheduler, AdmissionOrderIsDeterministic) {
  const auto first = RunAdmissionOrder(0);
  for (unsigned seed = 1; seed < 4; ++seed) {
    EXPECT_EQ(RunAdmissionOrder(seed), first);
  }
  // And is exactly the virtual-time order: actor 0 (fastest ops) should
  // lead; first admission must be actor 0 (all start at t=0, lowest id).
  EXPECT_EQ(first.front(), 0);
}

TEST(VirtualScheduler, TiesBreakByActorId) {
  VirtualScheduler sched(3);
  std::vector<int> order;
  std::vector<std::thread> threads;
  for (int a = 0; a < 3; ++a) {
    threads.emplace_back([&, a] {
      sched.atomically(a, [&](double now) {
        order.push_back(a);
        return now + 1.0;  // all land on the same time again
      });
      sched.atomically(a, [&](double now) {
        order.push_back(a);
        return now;
      });
      sched.finish(a);
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<int> expect{0, 1, 2, 0, 1, 2};
  EXPECT_EQ(order, expect);
}

TEST(SimResource, FifoQueueing) {
  SimResource r;
  // Arrivals in virtual-time order: 0.0 (svc 2), 1.0 (svc 1), 1.5 (svc 1).
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(r.reserve(1.0, 1.0), 3.0);  // queued behind first
  EXPECT_DOUBLE_EQ(r.reserve(1.5, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(r.busy_seconds(), 4.0);
  // Idle gap: arrival after free time starts immediately.
  EXPECT_DOUBLE_EQ(r.reserve(10.0, 0.5), 10.5);
}

TEST(VirtualBarrier, SynchronisesToMaxTime) {
  VirtualScheduler sched(3);
  VirtualBarrier barrier(sched, {0, 1, 2});
  std::vector<double> synced(3);
  std::vector<std::thread> threads;
  for (int a = 0; a < 3; ++a) {
    threads.emplace_back([&, a] {
      sched.advance(a, a * 2.0);  // times 0, 2, 4
      synced[a] = barrier.arrive(a);
      sched.finish(a);
    });
  }
  for (auto& t : threads) t.join();
  for (int a = 0; a < 3; ++a) {
    EXPECT_DOUBLE_EQ(synced[a], 4.0);
  }
}

TEST(VirtualBarrier, NonParticipantsKeepMoving) {
  VirtualScheduler sched(3);
  VirtualBarrier barrier(sched, {0, 1});
  std::atomic<bool> outsider_done{false};
  // Actor 0 parks at the barrier immediately (t = 0); actor 1 first runs
  // to t = 1 and then arrives. Actor 2 is not a participant: it must be
  // able to advance to t = 0.1 even while actor 0 is parked — if parked
  // actors gated the minimum, this test would deadlock.
  std::thread t0([&] {
    barrier.arrive(0);
    sched.finish(0);
  });
  std::thread t1([&] {
    sched.advance(1, 1.0);
    barrier.arrive(1);
    sched.finish(1);
  });
  std::thread t2([&] {
    for (int i = 0; i < 100; ++i) sched.advance(2, 0.001);
    outsider_done = true;
    sched.finish(2);
  });
  t0.join();
  t1.join();
  t2.join();
  EXPECT_TRUE(outsider_done.load());
  EXPECT_TRUE(sched.all_finished());
}

TEST(VirtualBarrier, ReusableAcrossGenerations) {
  VirtualScheduler sched(2);
  VirtualBarrier barrier(sched, {0, 1});
  std::vector<std::thread> threads;
  std::vector<double> last(2);
  for (int a = 0; a < 2; ++a) {
    threads.emplace_back([&, a] {
      for (int round = 0; round < 10; ++round) {
        sched.advance(a, a == 0 ? 1.0 : 2.0);
        last[a] = barrier.arrive(a);
      }
      sched.finish(a);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(last[0], last[1]);
  EXPECT_DOUBLE_EQ(last[0], 20.0);  // max path is actor 1: 10 rounds x 2s
}

TEST(VirtualScheduler, FinishedActorOperationThrows) {
  VirtualScheduler sched(2);
  sched.finish(0);
  EXPECT_THROW(sched.advance(0, 1.0), std::logic_error);
  // The rejected call changed nothing: actor 1 still runs alone.
  sched.advance(1, 1.0);
  EXPECT_DOUBLE_EQ(sched.now(1), 1.0);
  EXPECT_EQ(sched.stats().admissions, 1u);
  sched.finish(1);
}

TEST(VirtualBarrier, NonParticipantArrivalThrows) {
  VirtualScheduler sched(2);
  VirtualBarrier barrier(sched, {0});
  EXPECT_THROW(barrier.arrive(1), std::logic_error);
  sched.finish(0);
  EXPECT_THROW(barrier.arrive(0), std::logic_error);
  sched.finish(1);
  EXPECT_TRUE(sched.all_finished());
}

// The baton wakes only the (time, id) minimum, so a woken thread almost
// never finds it must wait again. Waking every waiter after each admission
// would make about N-1 of them futile per admission.
TEST(VirtualScheduler, BatonWakesOnlyTheMinimum) {
  constexpr std::size_t kActors = 16;
  constexpr int kOps = 200;
  VirtualScheduler sched(kActors);
  std::vector<std::thread> threads;
  for (std::size_t a = 0; a < kActors; ++a) {
    threads.emplace_back([&sched, a] {
      std::mt19937 rng(static_cast<unsigned>(1000 + a));
      std::uniform_int_distribution<int> step(0, 7);
      for (int i = 0; i < kOps; ++i) sched.advance(a, 0.25 * step(rng));
      sched.finish(a);
    });
  }
  for (auto& t : threads) t.join();
  const SchedulerStats st = sched.stats();
  EXPECT_EQ(st.admissions, kActors * kOps);
  EXPECT_LT(static_cast<double>(st.futile_wakeups),
            0.05 * static_cast<double>(st.admissions))
      << "wakeups " << st.wakeups << ", futile " << st.futile_wakeups;
}

struct Step {
  enum Kind { kAdvance, kArrive } kind;
  double dt;
};
using AdmissionLog = std::vector<std::pair<std::size_t, double>>;

// Participants 0 and 2 arrive at a barrier at t = 1, and non-participant
// 1 runs an op at t = 1 that ties with the barrier's completion. In
// (time, id) order 0 parks, 1's op runs, and only then does 2's arrival
// complete the barrier. The log must not depend on which thread the OS
// runs late.
AdmissionLog BarrierTieLog(std::size_t delayed) {
  VirtualScheduler sched(3);
  VirtualBarrier barrier(sched, {0, 2});
  AdmissionLog log;  // appended only inside admitted sections
  const auto op = [&](std::size_t a) {
    sched.atomically(a, [&, a](double now) {
      log.emplace_back(a, now);
      return now + 1.0;
    });
  };
  std::vector<std::thread> threads;
  for (std::size_t a = 0; a < 3; ++a) {
    threads.emplace_back([&, a] {
      op(a);
      if (a == delayed) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (a != 1) barrier.arrive(a);
      op(a);
      sched.finish(a);
    });
  }
  for (auto& th : threads) th.join();
  return log;
}

TEST(VirtualBarrier, CompletionTieIsAdmittedInTurn) {
  const AdmissionLog expect = {{0, 0.0}, {1, 0.0}, {2, 0.0},
                               {1, 1.0}, {0, 1.0}, {2, 1.0}};
  const AdmissionLog late_op = BarrierTieLog(1);
  const AdmissionLog late_arrival = BarrierTieLog(2);
  EXPECT_EQ(late_op, late_arrival);
  EXPECT_EQ(late_op, expect);
}

// Seeded differential test: 64 thread-actors run random advances, a barrier
// over a random subset and early finishes. Their admission log must equal
// the one a single-threaded model of the (time, id) rule computes, in
// which an arrival, like an op, happens only at its actor's turn. Every
// clock stays on multiples of 0.25, so ops tie with barrier completions
// all the time.
std::vector<std::vector<Step>> MakePrograms(unsigned seed, std::size_t actors,
                                            std::vector<std::size_t>* participants) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::vector<std::vector<Step>> progs(actors);
  for (std::size_t a = 0; a < actors; ++a) {
    auto& prog = progs[a];
    if (pick(0, 1) == 1) {
      participants->push_back(a);
      for (int i = pick(0, 10); i > 0; --i) {
        prog.push_back({Step::kAdvance, 0.25 * pick(0, 4)});
      }
      prog.push_back({Step::kArrive, 0.0});
    }
    // Zero further steps is an actor finishing early.
    for (int i = pick(0, 20); i > 0; --i) {
      prog.push_back({Step::kAdvance, 0.25 * pick(0, 4)});
    }
  }
  if (participants->empty()) {
    participants->push_back(0);
    progs[0] = {{Step::kArrive, 0.0}};
  }
  return progs;
}

AdmissionLog ReferenceLog(const std::vector<std::vector<Step>>& progs,
                          const std::vector<std::size_t>& participants) {
  enum State { kReady, kParked, kDone };
  const std::size_t n = progs.size();
  std::vector<double> t(n, 0.0);
  std::vector<std::size_t> pc(n, 0);
  std::vector<State> state(n, kReady);
  std::size_t arrived = 0;
  double max_time = 0.0;
  AdmissionLog log;
  for (;;) {
    std::size_t a = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (state[i] == kReady && (a == n || t[i] < t[a])) a = i;
    }
    if (a == n) break;
    if (pc[a] == progs[a].size()) {
      state[a] = kDone;
      continue;
    }
    // The (time, id) minimum takes its next step, an arrival included.
    const Step s = progs[a][pc[a]++];
    if (s.kind == Step::kAdvance) {
      log.emplace_back(a, t[a]);
      t[a] += s.dt;
      continue;
    }
    state[a] = kParked;
    max_time = std::max(max_time, t[a]);
    if (++arrived == participants.size()) {
      for (std::size_t p : participants) {
        t[p] = max_time;
        state[p] = kReady;
      }
    }
  }
  for (State s : state) EXPECT_EQ(s, kDone) << "reference model deadlocked";
  return log;
}

AdmissionLog ThreadedLog(const std::vector<std::vector<Step>>& progs,
                         const std::vector<std::size_t>& participants) {
  VirtualScheduler sched(progs.size());
  VirtualBarrier barrier(sched, participants);
  AdmissionLog log;  // appended only inside admitted sections
  std::vector<std::thread> threads;
  for (std::size_t a = 0; a < progs.size(); ++a) {
    threads.emplace_back([&, a] {
      for (const Step& s : progs[a]) {
        if (s.kind == Step::kArrive) {
          barrier.arrive(a);
          continue;
        }
        sched.atomically(a, [&, a](double now) {
          log.emplace_back(a, now);
          return now + s.dt;
        });
      }
      sched.finish(a);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(sched.all_finished());
  EXPECT_EQ(sched.stats().admissions, log.size());
  return log;
}

TEST(VirtualScheduler, MatchesSingleThreadedReferenceModel) {
  for (unsigned seed : {1u, 2u, 3u, 4u, 5u}) {
    std::vector<std::size_t> participants;
    const auto progs = MakePrograms(seed, 64, &participants);
    const AdmissionLog expect = ReferenceLog(progs, participants);
    ASSERT_FALSE(expect.empty());
    EXPECT_EQ(ThreadedLog(progs, participants), expect) << "seed " << seed;
  }
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.at(3.0, [&] { order.push_back(3); });
  q.at(1.0, [&] { order.push_back(1); });
  q.at(2.0, [&] { order.push_back(2); });
  q.run();
  const std::vector<int> expect{1, 2, 3};
  EXPECT_EQ(order, expect);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.at(1.0, [&, i] { order.push_back(i); });
  q.run();
  const std::vector<int> expect{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expect);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  auto id = q.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel reports failure
  q.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) q.after(1.0, tick);
  };
  q.after(1.0, tick);
  q.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int count = 0;
  q.at(1.0, [&] { ++count; });
  q.at(5.0, [&] { ++count; });
  q.run_until(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  q.run();
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, PastSchedulingThrows) {
  EventQueue q;
  q.at(2.0, [] {});
  q.run();
  EXPECT_THROW(q.at(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunawayGuard) {
  EventQueue q;
  std::function<void()> forever = [&] { q.after(1.0, forever); };
  q.after(1.0, forever);
  EXPECT_THROW(q.run(1000), std::runtime_error);
}

}  // namespace
}  // namespace pdsi::sim
