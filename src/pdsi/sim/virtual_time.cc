#include "pdsi/sim/virtual_time.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace pdsi::sim {

VirtualScheduler::VirtualScheduler(std::size_t num_actors)
    : cvs_(num_actors),
      times_(num_actors, 0.0),
      active_(num_actors, true),
      active_count_(num_actors) {
  if (num_actors == 0) throw std::invalid_argument("scheduler needs >= 1 actor");
}

double VirtualScheduler::now(std::size_t actor) const {
  std::lock_guard<std::mutex> lk(mu_);
  return times_[actor];
}

double VirtualScheduler::global_now() const {
  std::lock_guard<std::mutex> lk(mu_);
  double t = kTimeInfinity;
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (active_[i]) t = std::min(t, times_[i]);
  }
  return t == kTimeInfinity ? 0.0 : t;
}

bool VirtualScheduler::is_min_locked(std::size_t actor) const {
  const double t = times_[actor];
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (!active_[i] || i == actor) continue;
    if (times_[i] < t || (times_[i] == t && i < actor)) return false;
  }
  return true;
}

void VirtualScheduler::wake_min_locked() {
  std::size_t min = times_.size();
  for (std::size_t i = 0; i < times_.size(); ++i) {
    // Strict < keeps the lowest id among equal times.
    if (active_[i] && (min == times_.size() || times_[i] < times_[min])) min = i;
  }
  if (min != times_.size()) cvs_[min].notify_one();
}

template <typename Pred>
void VirtualScheduler::wait_locked(std::unique_lock<std::mutex>& lk, std::size_t actor,
                                   Pred ready) {
  while (!ready()) {
    cvs_[actor].wait(lk);
    ++stats_.wakeups;
    if (!ready()) ++stats_.futile_wakeups;
  }
}

void VirtualScheduler::atomically(std::size_t actor,
                                  const std::function<double(double)>& fn) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!active_[actor]) {
    throw std::logic_error("finished actor " + std::to_string(actor) +
                           " issued a simulated operation");
  }
  wait_locked(lk, actor, [&] { return is_min_locked(actor); });
  const double now = times_[actor];
  const double next = fn(now);
  assert(next >= now && "virtual time must not go backwards");
  times_[actor] = next;
  ++stats_.admissions;
  wake_min_locked();
}

void VirtualScheduler::advance(std::size_t actor, double dt) {
  assert(dt >= 0.0);
  atomically(actor, [dt](double now) { return now + dt; });
}

void VirtualScheduler::finish(std::size_t actor) {
  std::lock_guard<std::mutex> lk(mu_);
  if (active_[actor]) {
    active_[actor] = false;
    --active_count_;
    wake_min_locked();
  }
}

bool VirtualScheduler::all_finished() const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_count_ == 0;
}

SchedulerStats VirtualScheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

VirtualBarrier::VirtualBarrier(VirtualScheduler& sched,
                               std::vector<std::size_t> participants)
    : sched_(sched), participants_(std::move(participants)) {
  if (participants_.empty()) throw std::invalid_argument("empty barrier");
}

double VirtualBarrier::arrive(std::size_t actor) {
  std::unique_lock<std::mutex> lk(sched_.mu_);
  if (std::find(participants_.begin(), participants_.end(), actor) ==
      participants_.end()) {
    throw std::logic_error("actor " + std::to_string(actor) +
                           " is not a participant of this barrier");
  }
  if (!sched_.active_[actor]) {
    throw std::logic_error("finished actor " + std::to_string(actor) +
                           " arrived at a barrier");
  }
  // Arrive in (time, id) order, like any other operation: an arrival
  // that completes the barrier resumes the participants, so it must not
  // overtake a lower (time, id) admission that is still on its way.
  sched_.wait_locked(lk, actor, [&] { return sched_.is_min_locked(actor); });
  // Park: remove from min-calculation so non-participants keep moving.
  sched_.active_[actor] = false;
  --sched_.active_count_;
  max_time_ = std::max(max_time_, sched_.times_[actor]);
  ++arrived_;
  const std::uint64_t my_generation = generation_;
  if (arrived_ == participants_.size()) {
    // Last arriver completes the barrier atomically: everyone resumes at
    // the maximum arrival time.
    for (std::size_t p : participants_) {
      sched_.times_[p] = max_time_;
      sched_.active_[p] = true;
      ++sched_.active_count_;
      sched_.cvs_[p].notify_one();
    }
    arrived_ = 0;
    const double synced = max_time_;
    max_time_ = 0.0;
    ++generation_;
    sched_.wake_min_locked();
    return synced;
  }
  // Parking may have made another actor the minimum.
  sched_.wake_min_locked();
  sched_.wait_locked(lk, actor, [&] { return generation_ != my_generation; });
  return sched_.times_[actor];
}

}  // namespace pdsi::sim
