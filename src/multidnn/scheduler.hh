/**
 * @file
 * Event-driven multi-DNN scheduling (paper Figure 1c / Section 5.3).
 *
 * A simulation-clock event loop drains a queue of inference requests
 * against a DeviceCluster (multidnn/device.hh): arrival events feed a
 * ready set, completion events free device pipeline slots, and on
 * every dispatch opportunity a pluggable SchedulingPolicy picks the
 * next request and a pluggable placement policy picks its device.
 * Under FlashMem the swap-in is the streamed overlap plan; under
 * preloading baselines it is a full cold-start init — the repeated-
 * load overhead the paper targets. With
 * ClusterConfig::overlapInitWithExec the scheduler additionally
 * overlaps a request's streamed init (preload DMA) with the previous
 * request's compute on the same device — the paper's memory-hierarchy
 * overlap applied across requests.
 *
 * Memory-aware policies additionally enable **on-device re-planning**:
 * the scheduler caps the sum of co-resident working-set budgets at a
 * shared capacity budget, and when a model's share shifts — because
 * other models were admitted to or evicted from the ready set — the
 * model is re-planned at its new budget via FlashMem::replan(),
 * which replays the kept window solves the new budget cannot reach
 * (PlanMemo), so re-plans are cheap and bit-deterministic for any
 * planner thread count.
 */

#ifndef FLASHMEM_MULTIDNN_SCHEDULER_HH
#define FLASHMEM_MULTIDNN_SCHEDULER_HH

#include <functional>
#include <map>
#include <vector>

#include "baselines/preload_framework.hh"
#include "core/flashmem.hh"
#include "multidnn/device.hh"
#include "multidnn/faults.hh"
#include "multidnn/policies.hh"
#include "multidnn/workload.hh"

namespace flashmem::multidnn {

/** Knobs of the event-driven scheduler. */
struct SchedulerConfig
{
    Precision precision = Precision::FP16;
    /**
     * Shared working-set capacity budget that memory-aware admission
     * divides across co-resident models; 0 = the device's app memory
     * budget. Ignored by policies without memoryAware().
     */
    Bytes capacityBudget = 0;
    /** Floor below which a model's share is never shrunk. */
    Bytes minModelBudget = mib(128);
    /**
     * Budget shares are rounded down to a multiple of this quantum, so
     * small ready-set fluctuations do not trigger re-plan churn (and
     * the per-budget artifact cache stays small). */
    Bytes budgetQuantum = mib(64);
    /** Master switch for on-device re-planning on budget shifts. */
    bool replanOnBudgetShift = true;
    /** Cluster shape: device count, placement policy, cross-request
     * init/exec overlap (see multidnn/device.hh). The default is the
     * single serialized device of the original scheduler. */
    ClusterConfig cluster;
    /** Deterministic fault schedule injected into the drain (empty =
     * fault-free; see multidnn/faults.hh). */
    FaultPlan faults;
    /** Detection/retry knobs for recovering from injected faults. */
    RecoveryConfig recovery;
    /**
     * Arrival-time admission gate (null = dispatch-point admission
     * only). Not owned; must outlive the scheduler. Hand the SAME
     * gate to ServingSimParams::arrival for the fast-sim-vs-real
     * cross-validation to stay bit-exact (the gate sees identical
     * cluster state and ready sets on both paths by construction).
     */
    const ArrivalAdmission *arrivalAdmission = nullptr;
    /**
     * Optional trace recorder (not owned; must outlive the
     * scheduler's run() calls). Receives the serving event stream
     * from the shared event loop plus the scheduler's planner-side
     * events: a Replan event per on-device re-plan and one
     * SolverWindow summary per solved window of that re-plan. Null
     * (the default) keeps every hook a skipped pointer test.
     */
    obs::TraceRecorder *trace = nullptr;
};

/**
 * Quantize a per-model budget share down to @p cfg.budgetQuantum and
 * clamp it to [max(cfg.minModelBudget, chunk_floor), mPeak] — the one
 * rule every admission and degrade budget passes through, shared with
 * the serving harness's service calibration so both re-plan at the
 * same budgets.
 */
Bytes quantizeBudgetShare(Bytes share, const SchedulerConfig &cfg,
                          Bytes chunk_floor, Bytes mPeak);

/** One request dropped without completing: SLO admission (never
 * dispatched), fault-retry budget exhausted, or starved when no
 * device could ever accept it again. */
struct ShedRecord
{
    std::size_t queueIndex = 0;
    models::ModelId model{};
    SimTime arrival = 0;
    SimTime latencyBound = 0;
    SimTime shedAt = 0; ///< dispatch point at which it was dropped
    DropReason reason = DropReason::Admission;
};

/** Outcome of draining one request queue. */
struct ScheduleOutcome
{
    /** Name of the policy that produced this outcome. */
    std::string policy;
    /**
     * Per-request results in dispatch (execution) order — queue order
     * under FIFO. RunResult::arrival carries the request's queue-entry
     * time, so requestLatency() includes queueing delay.
     */
    std::vector<core::RunResult> runs;
    SimTime makespan = 0;        ///< last completion
    Bytes peakMemory = 0;        ///< peak over the whole queue
    double avgMemoryBytes = 0.0; ///< time-weighted average
    double energyJoules = 0.0;
    /** Total-memory trace of this run (Figure 6 plots). Owned by the
     * outcome — schedulers keep no mutable global state. */
    TimeSeries trace;

    /** @name On-device re-planning counters (memory-aware policies). @{ */
    int replans = 0;                  ///< FlashMem::replan invocations
    /** Replan rounds replayed from PlanMemo solve records
     * (PlanStats::reusedRounds summed over replans). */
    std::uint64_t replanMemoHits = 0;
    double replanSeconds = 0.0;       ///< wall time spent re-planning
    /** @} */

    /** @name SLO admission (deadline-aware policies). @{ */
    /** Requests dropped without completing (admission, fault budget,
     * starvation — see ShedRecord::reason), in drop order. */
    std::vector<ShedRecord> shed;
    /** Completed runs that were dispatched at a degraded budget. */
    int degradedRuns = 0;
    /** @} */

    /** Fault-recovery accounting (all zero on fault-free drains). */
    FaultCounters faults;

    /** Per-device accounting: dispatch counts, plan switches, and
     * compute-/DMA-busy fractions over the makespan, so benches can
     * report overlap efficiency directly instead of inferring it from
     * the makespan. One row per cluster device. */
    std::vector<DeviceUtilization> devices;

    /** Mean request latency (end - arrival): includes queueing delay. */
    SimTime meanLatency() const;
    /** Mean time requests spent queued before dispatch. */
    SimTime meanQueueDelay() const;

    /** Completed runs that met their SLO (unbounded requests count;
     * shed requests never do — they did not complete). */
    std::size_t goodput() const;
    /** Completed runs that blew their latency bound. */
    std::size_t sloViolations() const;
    /** goodput() over all submitted requests (completed + shed). */
    double goodputRate() const;
    /** Shed requests over all submitted requests. */
    double shedRate() const;
};

/** Event-driven scheduler bound to one FlashMem instance. */
class EventScheduler
{
  public:
    explicit EventScheduler(const core::FlashMem &fm,
                            SchedulerConfig cfg = {});

    /**
     * Drain @p queue under @p policy. Compiled artifacts (per model,
     * per budget) and latency estimates persist across run() calls, so
     * per-policy comparisons pay the offline stage once; results are
     * unaffected because plans are deterministic per (model, budget).
     */
    ScheduleOutcome run(const std::vector<ModelRequest> &queue,
                        const SchedulingPolicy &policy);

    /**
     * Drain @p queue under a preloading baseline framework. Cold-start
     * init per request; no re-planning (the baselines have no plans).
     * @p cluster supports multi-device sharding, but cross-request
     * overlap is forced off: the baselines serialize initialization
     * with execution — there is no streamed DMA-queue init to overlap,
     * which is exactly the repeated-load overhead the paper targets.
     */
    static ScheduleOutcome runPreload(baselines::FrameworkId framework,
                                      const gpusim::DeviceProfile &dev,
                                      const std::vector<ModelRequest>
                                          &queue,
                                      const SchedulingPolicy &policy,
                                      Precision precision =
                                          Precision::FP16,
                                      ClusterConfig cluster = {});

    const SchedulerConfig &config() const { return cfg_; }

  private:
    /** Places and runs one picked request on a cluster device. */
    struct DeviceRun
    {
        int device = 0;
        core::RunResult run;
    };
    using DispatchFn = std::function<DeviceRun(
        const ReadyRequest &, SimTime now, int co_resident_models)>;

    /**
     * The simulation-clock event loop shared by the FlashMem and
     * preload paths (multidnn/event_loop.hh): arrivals enter the ready
     * set, completions free device pipeline slots, @p policy picks on
     * every dispatch opportunity, @p dispatch places and executes the
     * pick (and commits it to @p cluster). @p faults, when non-null,
     * injects the deterministic fault schedule; killed dispatches are
     * retried per @p recovery and never reach ScheduleOutcome::runs.
     */
    static ScheduleOutcome drain(
        DeviceCluster &cluster,
        const std::vector<ModelRequest> &queue,
        const SchedulingPolicy &policy,
        const std::map<models::ModelId, SimTime> &estimates,
        const DispatchFn &dispatch,
        const FaultPlan *faults = nullptr,
        const RecoveryConfig &recovery = {},
        const ArrivalAdmission *arrival = nullptr,
        obs::TraceRecorder *trace = nullptr);

    /** Finalize makespan/memory/energy/trace/per-device rows. */
    static void summarize(const std::vector<gpusim::GpuSimulator> &sims,
                          const DeviceCluster &cluster,
                          ScheduleOutcome &out);

    /** Compiled artifact for (model, budget), compiling/re-planning on
     * first use. Re-plans are counted into @p out. */
    const core::CompiledModel &compiledFor(models::ModelId model,
                                           Bytes budget,
                                           ScheduleOutcome &out);

    /** Measured solo run of (model, budget) on a scratch simulator —
     * the init/exec split the cross-request overlap model places runs
     * with, and the source of warm latency estimates. Cached;
     * executions are start-time invariant so one measurement covers
     * every dispatch. */
    const core::RunResult &profileFor(models::ModelId model,
                                      Bytes budget,
                                      ScheduleOutcome &out);

    /** Warm single-run latency estimate (scratch simulator). */
    SimTime estimateFor(models::ModelId model, ScheduleOutcome &out);

    /** Admission budget for a model when @p co_resident distinct
     * models currently share the capacity budget. */
    Bytes admissionBudget(int co_resident) const;

    /** Quantize @p share down to the budget quantum and clamp it to
     * [minModelBudget, configured mPeak]. */
    Bytes clampQuantize(Bytes share) const;

    const core::FlashMem &fm_;
    SchedulerConfig cfg_;
    std::map<models::ModelId, graph::Graph> graphs_;
    std::map<std::pair<models::ModelId, Bytes>, core::CompiledModel>
        compiled_;
    std::map<std::pair<models::ModelId, Bytes>, core::RunResult>
        profiles_;
};

} // namespace flashmem::multidnn

#endif // FLASHMEM_MULTIDNN_SCHEDULER_HH
