#include "gpusim/timeline.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flashmem::gpusim {

Interval
Timeline::reserve(SimTime earliest, SimTime duration)
{
    FM_ASSERT(duration >= 0, "negative reservation on ", name_);
    SimTime start = std::max(earliest, free_at_);
    Interval iv{start, start + duration};
    free_at_ = iv.end;
    busy_time_ += duration;
    ++reservations_;
    return iv;
}

void
Timeline::appendShifted(const Timeline &run, SimTime at)
{
    FM_ASSERT(free_at_ <= at, name_, " is busy until ", free_at_,
              ", past the replay start ", at);
    if (run.reservations_ == 0)
        return;
    free_at_ = at + run.free_at_;
    busy_time_ += run.busy_time_;
    reservations_ += run.reservations_;
}

void
Timeline::reset()
{
    free_at_ = 0;
    busy_time_ = 0;
    reservations_ = 0;
}

Interval
BandwidthTimeline::transfer(SimTime earliest, Bytes bytes)
{
    bool channel_idle = earliest >= timeline_.freeAt();
    SimTime duration = bandwidth_.transferTime(bytes);
    if (channel_idle)
        duration += per_op_overhead_;
    auto iv = timeline_.reserve(earliest, duration);
    bytes_moved_ += bytes;
    return iv;
}

void
BandwidthTimeline::appendShifted(const BandwidthTimeline &run, SimTime at)
{
    timeline_.appendShifted(run.timeline_, at);
    bytes_moved_ += run.bytes_moved_;
}

void
BandwidthTimeline::reset()
{
    timeline_.reset();
    bytes_moved_ = 0;
}

} // namespace flashmem::gpusim
