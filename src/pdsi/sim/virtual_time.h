// Deterministic virtual-time coordination for thread-ranks.
//
// Rank programs (checkpoint writers, metadata clients) are ordinary
// synchronous C++ running on std::thread. Every simulated I/O goes through
// VirtualScheduler::atomically(), which admits exactly one thread at a
// time: the one whose (virtual time, actor id) pair is the lexicographic
// minimum over all active actors. Inside the admitted section the actor
// reserves time on shared SimResources (disks, servers, locks) and moves
// its own clock to the operation's completion time.
//
// Because admissions are totally ordered by (time, id) and all shared
// state is touched only inside admitted sections, the simulation is an
// exact, reproducible conservative discrete-event execution: re-running
// with the same seeds produces byte-identical results regardless of OS
// thread scheduling.
//
// Hand-off is a baton: each actor waits on its own condition variable, and
// after every state change (admission, finish, barrier park or completion)
// only the (time, id) minimum is notified. Only it can make progress, so
// no other thread is woken to rescan the actors.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <vector>

namespace pdsi::sim {

/// Exact wake-up counters, for tests and reports.
struct SchedulerStats {
  std::uint64_t admissions = 0;      ///< atomically() sections run
  std::uint64_t wakeups = 0;         ///< returns from a blocked wait
  std::uint64_t futile_wakeups = 0;  ///< wakeups whose wait condition still failed
};

class VirtualScheduler {
 public:
  /// Creates a scheduler for actors 0..n-1, all active at time 0.
  explicit VirtualScheduler(std::size_t num_actors);

  std::size_t num_actors() const { return times_.size(); }

  /// The actor's current virtual time. Only the actor itself may assume
  /// this is exact; other threads get a snapshot.
  double now(std::size_t actor) const;

  /// Minimum virtual time over active actors (reporting only).
  double global_now() const;

  /// Blocks until `actor` is the (time, id)-minimum, then runs `fn(now)`
  /// under the scheduler lock. `fn` returns the actor's new absolute time,
  /// which must be >= now. Shared simulation state (resources, lock
  /// tables) must only be touched inside such sections. Throws
  /// std::logic_error if the actor has finished.
  void atomically(std::size_t actor, const std::function<double(double)>& fn);

  /// Convenience: advance the actor's clock by dt (>= 0).
  void advance(std::size_t actor, double dt);

  /// Marks the actor finished; it no longer gates other actors.
  /// Idempotent.
  void finish(std::size_t actor);

  /// True once every actor has finished.
  bool all_finished() const;

  SchedulerStats stats() const;

 private:
  friend class VirtualBarrier;

  bool is_min_locked(std::size_t actor) const;
  /// Notifies the (time, id)-minimum active actor, the only one that can
  /// proceed. Called after every change to times_ or active_.
  void wake_min_locked();
  /// Blocks `actor` on its own condition variable until `ready()` holds.
  template <typename Pred>
  void wait_locked(std::unique_lock<std::mutex>& lk, std::size_t actor, Pred ready);

  mutable std::mutex mu_;
  std::vector<std::condition_variable> cvs_;
  std::vector<double> times_;
  std::vector<bool> active_;
  std::size_t active_count_;
  SchedulerStats stats_;
};

/// Synchronises a fixed set of participants: every arriver blocks until
/// all have arrived, then all resume with their clocks set to the maximum
/// arrival time (the barrier's completion instant). An arrival is
/// admitted in (time, id) order like any simulated operation, so a tie
/// between the barrier's completion and another actor's op resolves the
/// same way on every run. Participants are removed from the scheduler's
/// min-calculation while parked so non-participants can keep making
/// progress.
class VirtualBarrier {
 public:
  VirtualBarrier(VirtualScheduler& sched, std::vector<std::size_t> participants);

  /// Blocks until all participants arrive. Returns the synchronised time.
  /// Throws std::logic_error if `actor` is not an active participant.
  double arrive(std::size_t actor);

 private:
  VirtualScheduler& sched_;
  std::vector<std::size_t> participants_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  double max_time_ = 0.0;
};

/// A FIFO single-server resource (disk head, NIC, server CPU). Reserve
/// only inside VirtualScheduler::atomically sections; admission order
/// guarantees reservations arrive in nondecreasing virtual time, which
/// makes the one-word clock an exact FIFO queue model.
class SimResource {
 public:
  /// Reserves `service` seconds starting no earlier than `now`; returns
  /// the completion time.
  double reserve(double now, double service) {
    const double start = now > free_ ? now : free_;
    free_ = start + service;
    busy_ += service;
    return free_;
  }

  /// Next instant the resource is idle.
  double free_at() const { return free_; }

  /// Total busy seconds accumulated (for utilisation reporting).
  double busy_seconds() const { return busy_; }

 private:
  double free_ = 0.0;
  double busy_ = 0.0;
};

inline constexpr double kTimeInfinity = std::numeric_limits<double>::infinity();

}  // namespace pdsi::sim
