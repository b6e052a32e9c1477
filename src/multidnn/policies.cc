#include "multidnn/policies.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flashmem::multidnn {

namespace {

/** Lexicographic (arrival, queueIndex) — the FIFO total order. */
bool
fifoBefore(const ReadyRequest &a, const ReadyRequest &b)
{
    if (a.arrival != b.arrival)
        return a.arrival < b.arrival;
    return a.queueIndex < b.queueIndex;
}

} // namespace

bool
SchedulingPolicy::before(const ReadyRequest &a, const ReadyRequest &b) const
{
    return fifoBefore(a, b);
}

bool
SjfPolicy::before(const ReadyRequest &a, const ReadyRequest &b) const
{
    if (a.estimatedLatency != b.estimatedLatency)
        return a.estimatedLatency < b.estimatedLatency;
    return fifoBefore(a, b);
}

std::int64_t
PriorityAgingPolicy::effectivePriority(SimTime now,
                                       const ReadyRequest &r) const
{
    SimTime waited = std::max<SimTime>(now - r.arrival, 0);
    return static_cast<std::int64_t>(r.priority) +
           static_cast<std::int64_t>(waited / aging_quantum_);
}

std::size_t
PriorityAgingPolicy::select(SimTime now,
                            std::span<const ReadyRequest> ready) const
{
    FM_ASSERT(!ready.empty(), "select() on empty ready set");
    std::size_t best = 0;
    auto best_p = effectivePriority(now, ready[0]);
    for (std::size_t i = 1; i < ready.size(); ++i) {
        auto p = effectivePriority(now, ready[i]);
        if (p > best_p ||
            (p == best_p && fifoBefore(ready[i], ready[best]))) {
            best = i;
            best_p = p;
        }
    }
    return best;
}

bool
DeadlinePolicy::before(const ReadyRequest &a, const ReadyRequest &b) const
{
    if (a.deadline() != b.deadline())
        return a.deadline() < b.deadline();
    return fifoBefore(a, b);
}

SimTime
DeadlinePolicy::admitUntil(const ReadyRequest &r) const
{
    if (r.latencyBound <= 0 || (mode_ == Overload::Degrade && r.degraded))
        return kTimeNever;
    // Feasible iff the request could still meet its deadline were it
    // dispatched right now at its full-budget estimate.
    return r.deadline() - r.estimatedLatency;
}

Admission
DeadlinePolicy::admit(SimTime now, const ReadyRequest &r) const
{
    // Qualified: a subclass may lower admitUntil() without changing
    // the verdicts.
    if (now <= DeadlinePolicy::admitUntil(r))
        return Admission::Admit;
    return mode_ == Overload::Shed ? Admission::Shed
                                   : Admission::Degrade;
}

Bytes
DeadlinePolicy::degradedBudget(Bytes base_budget) const
{
    if (mode_ != Overload::Degrade)
        return base_budget;
    auto scaled = static_cast<Bytes>(
        static_cast<double>(base_budget) * degrade_fraction_);
    return std::min(base_budget, scaled);
}

std::unique_ptr<SchedulingPolicy>
makePolicy(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Fifo:
        return std::make_unique<FifoPolicy>();
      case PolicyKind::ShortestJobFirst:
        return std::make_unique<SjfPolicy>();
      case PolicyKind::PriorityAging:
        return std::make_unique<PriorityAgingPolicy>();
      case PolicyKind::Deadline:
        return std::make_unique<DeadlinePolicy>();
      case PolicyKind::MemoryAware:
        return std::make_unique<MemoryAwarePolicy>();
    }
    FM_FATAL("unknown policy kind");
}

const std::vector<PolicyKind> &
allPolicyKinds()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::Fifo,
        PolicyKind::ShortestJobFirst,
        PolicyKind::PriorityAging,
        PolicyKind::Deadline,
        PolicyKind::MemoryAware,
    };
    return kinds;
}

} // namespace flashmem::multidnn
