/**
 * @file
 * GpuSimulator: facade tying the device profile, resource timelines
 * (disk DMA, transform queue, compute queue), memory tracking, the
 * kernel model, and power accounting together. Runtimes (FlashMem and
 * the baseline frameworks) orchestrate executions against this object.
 */

#ifndef FLASHMEM_GPUSIM_SIMULATOR_HH
#define FLASHMEM_GPUSIM_SIMULATOR_HH

#include "gpusim/device.hh"
#include "gpusim/kernel.hh"
#include "gpusim/memory.hh"
#include "gpusim/power.hh"
#include "gpusim/timeline.hh"

namespace flashmem::gpusim {

/** One simulated mobile device executing DNN workloads. */
class GpuSimulator
{
  public:
    explicit GpuSimulator(DeviceProfile dev);

    const DeviceProfile &device() const { return dev_; }
    const KernelModel &kernelModel() const { return kernel_model_; }

    /** Disk -> unified memory DMA (UFS reads). */
    BandwidthTimeline &disk() { return disk_; }
    /** Dedicated UM -> TM transform/copy queue. */
    BandwidthTimeline &transformQueue() { return transform_; }
    /** Serialized compute command queue. */
    Timeline &computeQueue() { return compute_; }

    MemoryTracker &memory() { return memory_; }
    const MemoryTracker &memory() const { return memory_; }

    /** Latest point any resource is busy until. */
    SimTime horizon() const;

    /** True when a run started at @p at would find every resource
     * free and nothing live: no timeline busy past @p at, no bytes
     * live, no memory sample after @p at. */
    bool idleAt(SimTime at) const;

    /**
     * Append @p solo's single run as if it had been executed again on
     * this simulator starting at @p at: every timeline's horizon, busy
     * time, reservation count and bytes moved, and the memory trace,
     * peaks and OOM flag, end exactly as that execution would leave
     * them, at a cost linear in the run's trace points instead of its
     * kernels. Sound because executions on an idle simulator are
     * start-time invariant. Preconditions (asserted): this simulator
     * is idleAt(@p at), and @p solo, built on the same device profile,
     * holds exactly one run, started at 0, that ended with nothing
     * live (MemoryTracker::appendShifted).
     */
    void replay(const GpuSimulator &solo, SimTime at);

    /** Activity summary up to @p makespan (for power/energy). */
    ActivitySummary activity(SimTime makespan) const;

    double energyJoules(SimTime makespan) const;
    double averagePowerW(SimTime makespan) const;

  private:
    DeviceProfile dev_;
    KernelModel kernel_model_;
    BandwidthTimeline disk_;
    BandwidthTimeline transform_;
    Timeline compute_;
    MemoryTracker memory_;
    PowerModel power_;
};

} // namespace flashmem::gpusim

#endif // FLASHMEM_GPUSIM_SIMULATOR_HH
