#include "gpusim/simulator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flashmem::gpusim {

GpuSimulator::GpuSimulator(DeviceProfile dev)
    : dev_(dev), kernel_model_(dev_),
      disk_("disk", dev_.diskToUm, dev_.diskRequestOverhead),
      transform_("transform", dev_.umToTm,
                 dev_.transformDispatchOverhead),
      compute_("compute"), memory_(dev_.appMemoryBudget), power_(dev_)
{
}

SimTime
GpuSimulator::horizon() const
{
    return std::max({disk_.freeAt(), transform_.freeAt(),
                     compute_.freeAt()});
}

bool
GpuSimulator::idleAt(SimTime at) const
{
    return horizon() <= at && memory_.used() == 0 &&
           memory_.lastTime() <= at;
}

void
GpuSimulator::replay(const GpuSimulator &solo, SimTime at)
{
    FM_ASSERT(idleAt(at), "replay at ", at,
              " onto a simulator busy until ", horizon());
    disk_.appendShifted(solo.disk_, at);
    transform_.appendShifted(solo.transform_, at);
    compute_.appendShifted(solo.compute_, at);
    memory_.appendShifted(solo.memory_, at);
}

ActivitySummary
GpuSimulator::activity(SimTime makespan) const
{
    ActivitySummary a;
    a.makespan = makespan;
    a.computeBusy = compute_.busyTime();
    a.diskBusy = disk_.busyTime();
    a.bytesMoved = disk_.bytesMoved() + transform_.bytesMoved();
    return a;
}

double
GpuSimulator::energyJoules(SimTime makespan) const
{
    return power_.energyJoules(activity(makespan));
}

double
GpuSimulator::averagePowerW(SimTime makespan) const
{
    return power_.averagePowerW(activity(makespan));
}

} // namespace flashmem::gpusim
