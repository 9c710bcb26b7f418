#include "cluster/membership.hh"

namespace sns::cluster {

const char *
workerStateName(WorkerState state)
{
    switch (state) {
    case WorkerState::Up:
        return "up";
    case WorkerState::Draining:
        return "draining";
    case WorkerState::Down:
        return "down";
    }
    return "unknown";
}

Membership::Membership(std::vector<WorkerAddress> addresses, int vnodes,
                       int fail_threshold)
    : worker_count_(addresses.size()), vnodes_(vnodes),
      fail_threshold_(fail_threshold)
{
    workers_.reserve(addresses.size());
    for (auto &address : addresses)
        workers_.push_back({std::move(address), WorkerState::Up, 0});
}

HashRing
Membership::ring() const
{
    std::vector<HashRing::Member> members;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t i = 0; i < workers_.size(); ++i) {
            if (workers_[i].state == WorkerState::Up)
                members.push_back({workers_[i].address.display(), i});
        }
    }
    return HashRing(members, vnodes_);
}

std::vector<WorkerInfo>
Membership::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return workers_;
}

WorkerAddress
Membership::address(size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return workers_.at(index).address;
}

void
Membership::setStateLocked(size_t index, WorkerState state)
{
    if (workers_[index].state == state)
        return;
    workers_[index].state = state;
    epoch_.fetch_add(1);
}

void
Membership::markReachable(size_t index, bool draining)
{
    std::lock_guard<std::mutex> lock(mutex_);
    workers_[index].consecutive_failures = 0;
    setStateLocked(index,
                   draining ? WorkerState::Draining : WorkerState::Up);
}

void
Membership::markFailure(size_t index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (++workers_[index].consecutive_failures >= fail_threshold_)
        setStateLocked(index, WorkerState::Down);
}

void
Membership::markDraining(size_t index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    setStateLocked(index, WorkerState::Draining);
}

size_t
Membership::countInState(WorkerState state) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t count = 0;
    for (const auto &worker : workers_)
        count += worker.state == state ? 1 : 0;
    return count;
}

} // namespace sns::cluster
