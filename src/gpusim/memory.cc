#include "gpusim/memory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flashmem::gpusim {

const char *
memKindName(MemKind kind)
{
    switch (kind) {
      case MemKind::UnifiedWeights:
        return "um_weights";
      case MemKind::TextureWeights:
        return "tm_weights";
      case MemKind::Activations:
        return "activations";
      case MemKind::Scratch:
        return "scratch";
      case MemKind::NumKinds:
        break;
    }
    return "?";
}

void
MemoryTracker::alloc(MemKind kind, Bytes bytes, SimTime at)
{
    auto idx = static_cast<std::size_t>(kind);
    used_[idx] += bytes;
    total_ += bytes;
    peak_ = std::max(peak_, total_);
    peak_per_kind_[idx] = std::max(peak_per_kind_[idx], used_[idx]);
    if (budget_ > 0 && total_ > budget_)
        oom_ = true;
    total_trace_.record(clamp(at), static_cast<double>(total_));
}

void
MemoryTracker::free(MemKind kind, Bytes bytes, SimTime at)
{
    auto idx = static_cast<std::size_t>(kind);
    FM_ASSERT(used_[idx] >= bytes, "over-free of ", memKindName(kind),
              ": freeing ", bytes, " with ", used_[idx], " live");
    used_[idx] -= bytes;
    total_ -= bytes;
    total_trace_.record(clamp(at), static_cast<double>(total_));
}

void
MemoryTracker::appendShifted(const MemoryTracker &run, SimTime at)
{
    FM_ASSERT(total_ == 0 && last_time_ <= at,
              "replay at ", at, " onto a tracker with ", total_,
              " bytes live and samples up to ", last_time_);
    FM_ASSERT(run.total_ == 0, "replayed run ended with ", run.total_,
              " bytes live");
    const auto &pts = run.total_trace_.points();
    if (pts.empty())
        return;
    FM_ASSERT(pts.front().time == 0, "replayed run starts at ",
              pts.front().time, ", not 0");
    for (std::size_t i = 0; i + 1 < pts.size(); ++i)
        FM_ASSERT(pts[i].value > 0, "replayed trace holds more than one "
                                    "run: nothing live at ", pts[i].time);

    total_trace_.appendShifted(run.total_trace_, at);
    last_time_ = at + run.last_time_;
    // This tracker starts the run empty, so its totals retrace the
    // run's exactly.
    peak_ = std::max(peak_, run.peak_);
    for (std::size_t k = 0; k < kNumKinds; ++k)
        peak_per_kind_[k] = std::max(peak_per_kind_[k],
                                     run.peak_per_kind_[k]);
    if (budget_ > 0 && run.peak_ > budget_)
        oom_ = true;
}

Bytes
MemoryTracker::peakOver(SimTime start, SimTime end) const
{
    return static_cast<Bytes>(total_trace_.maxOver(start, end));
}

Bytes
MemoryTracker::used(MemKind kind) const
{
    return used_[static_cast<std::size_t>(kind)];
}

Bytes
MemoryTracker::peak(MemKind kind) const
{
    return peak_per_kind_[static_cast<std::size_t>(kind)];
}

double
MemoryTracker::averageBytes(SimTime start, SimTime end) const
{
    return total_trace_.timeWeightedAverage(start, end);
}

} // namespace flashmem::gpusim
