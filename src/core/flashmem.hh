/**
 * @file
 * FlashMem public API.
 *
 * Mirrors the paper's two-stage workflow (Figure 3):
 *
 *   Offline — FlashMem::compile(): operator fusion, load-capacity
 *   estimation, LC-OPG overlap planning with the adaptive-fusion
 *   feedback loop, and template kernel rewriting; produces a reusable
 *   CompiledModel.
 *
 *   Online — FlashMem::execute(): streams the model through a
 *   GpuSimulator following the overlap plan.
 *
 * Ablation toggles (Figure 7) select which optimizations participate.
 */

#ifndef FLASHMEM_CORE_FLASHMEM_HH
#define FLASHMEM_CORE_FLASHMEM_HH

#include <memory>
#include <string>
#include <vector>

#include "core/fusion.hh"
#include "core/kernel_rewriter.hh"
#include "core/lc_opg.hh"
#include "core/overlap_plan.hh"
#include "core/runtime.hh"
#include "gpusim/simulator.hh"
#include "profiler/capacity.hh"

namespace flashmem::core {

/** Compile-time options; defaults reproduce the full system. */
struct FlashMemOptions
{
    OpgParams opg;
    FusionParams fusion;
    profiler::CapacityThresholds thresholds;

    /** Enable operator fusion + the adaptive splitting loop. */
    bool adaptiveFusion = true;
    /** Emit branch-free pipelined kernels (vs branchy interleave). */
    bool kernelRewriting = true;
    /** Adaptive fusion feedback rounds. */
    int maxFusionRounds = 3;
    /** Preload fraction above which a fusion round triggers splits. */
    double splitTriggerPreloadFraction = 0.15;
};

/** Offline-stage artifact: plan + kernels for one model on one device. */
struct CompiledModel
{
    graph::Graph fusedGraph;
    OverlapPlan plan;
    std::vector<RewrittenKernel> kernels;
    /** Stats of the final planning round (the plan that shipped). */
    PlanStats stats;
    /** In-flight memory budget (M_peak) the shipped plan was solved
     * under; FlashMem::replan() produces siblings at other budgets. */
    Bytes planBudget = 0;
    /** Re-plans this artifact went through (0 for a fresh compile). */
    int replans = 0;
    int fusionRounds = 0;
    int groupsSplit = 0;
    /** @name Aggregates across all adaptive-fusion rounds. @{ */
    double totalSolveSeconds = 0.0;
    std::uint64_t totalSolverDecisions = 0;
    /** @} */

    /** Fraction of weight bytes streamed rather than preloaded. */
    double
    overlapFraction() const
    {
        return plan.overlapFraction(fusedGraph);
    }
};

/** The FlashMem framework for one device profile. */
class FlashMem
{
  public:
    explicit FlashMem(const gpusim::DeviceProfile &device,
                      FlashMemOptions options = {});

    /** Offline stage: fuse, plan, and rewrite @p model. */
    CompiledModel compile(const graph::Graph &model) const;

    /**
     * On-device re-planning: produce a sibling of @p compiled whose
     * overlap plan is solved under @p mPeak instead of the budget it
     * shipped with. The fused graph is reused as-is (fusion decisions
     * are budget-independent, so the adaptive-fusion loop is skipped)
     * and window solves go through the configured PlanMemo, which
     * replays kept solves the new budget cannot reach
     * (LcOpgPlanner::replan gives the measured cost). Repeated budget
     * shifts — the multi-DNN scheduler admitting/evicting co-resident
     * models — are cheap and bit-deterministic for any thread count.
     */
    CompiledModel replan(const CompiledModel &compiled,
                         Bytes mPeak) const;

    /** Online stage: execute a compiled model on @p sim. */
    RunResult execute(gpusim::GpuSimulator &sim,
                      const CompiledModel &compiled,
                      SimTime arrival = 0) const;

    /** Convenience: compile + execute on a fresh simulator. */
    RunResult runOnce(const graph::Graph &model) const;

    const gpusim::DeviceProfile &device() const { return device_; }
    const FlashMemOptions &options() const { return options_; }

  private:
    /** Penalty score of one fused group under @p plan (Section 4.3). */
    double groupPenalty(const graph::Graph &fused,
                        const OverlapPlan &plan,
                        graph::NodeId fused_node) const;

    gpusim::DeviceProfile device_;
    FlashMemOptions options_;
    gpusim::KernelModel kernel_model_;
    profiler::AnalyticCapacityProvider capacity_;
};

} // namespace flashmem::core

#endif // FLASHMEM_CORE_FLASHMEM_HH
