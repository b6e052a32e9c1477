/**
 * @file
 * LC-OPG: the Load-Capacity-aware Overlap Plan Generation solver
 * (paper Section 3).
 *
 * The OPG problem decides, for every weight w:
 *   - how many chunks join the preload set W (loaded at init),
 *   - which earlier layers transform the remaining chunks inline
 *     (x_{w,l}, constraints C0-C3),
 *   - the earliest disk-load layer z_w (constraint C1),
 * minimizing lambda * |W| + (1 - lambda) * sum(loading distances) while
 * per-layer load capacities C_l and the in-flight memory bound M_peak
 * hold (C2, C3).
 *
 * The paper solves each window with CP-SAT from a greedy warm start.
 * Here every window round first solves its transportation core (C0, C3
 * and the variable caps; core/window_flow.hh) as an exact integer
 * min-cost flow, with z_w set to the earliest layer the flow uses. When
 * that solution also satisfies C2 on the staged in-flight snapshot it
 * is the round's result. A round where C2 binds ships the greedy warm
 * start instead. No CP model is built and nothing is searched: the
 * formulation (C0-C4) is the paper's, the flow solves its C2-relaxed
 * core exactly, and the greedy start is always C2-feasible. C4's
 * incremental-preloading tier still pins the heaviest preloader of a
 * window that ends up mostly in W and re-plans the window.
 *
 * Whole-plan generation is a three-phase pipeline:
 *   1. stage  — sequential: each window's inputs (weight slice,
 *      candidates, greedy warm start, residual-capacity snapshot) are
 *      computed up front, with the greedy acting as the staged
 *      capacity reservation for windows that follow;
 *   2. solve  — parallel: windows solve concurrently on a ThreadPool
 *      (ParallelPlanParams::threads), each a pure function of its
 *      staged input;
 *   3. merge  — sequential, in window order: solutions commit into the
 *      authoritative capacity ledgers with clamping, so the final plan
 *      is valid and byte-identical for any thread count.
 */

#ifndef FLASHMEM_CORE_LC_OPG_HH
#define FLASHMEM_CORE_LC_OPG_HH

#include <cstdint>
#include <vector>

#include "core/overlap_plan.hh"
#include "core/window_flow.hh"
#include "gpusim/kernel.hh"
#include "profiler/capacity.hh"
#include "solver/model.hh"

namespace flashmem::core {

/**
 * Parallel window-solving knobs. Whole-plan generation runs as a
 * three-phase pipeline — stage (sequential), solve (parallel on a
 * ThreadPool), merge (sequential, in window order) — so the merged
 * OverlapPlan is byte-identical for any thread count.
 */
struct ParallelPlanParams
{
    /** Worker threads for window solves; 0 = hardware_concurrency. */
    int threads = 0;
};

/** OPG hyper-parameters (paper Sections 3.1-3.2). */
struct OpgParams
{
    Bytes chunkBytes = mib(1);          ///< S
    Bytes mPeak = mib(500);             ///< M_peak (memory priority)
    /** Preload-vs-distance balance; ~0.9 prioritizes low memory. */
    double lambda = 0.9;
    /** Distance-penalty weight (mu). */
    double mu = 0.1;
    /** Rolling-window length in layers (incremental scheduling). */
    int windowLayers = 32;
    /** How many layers before i_w a chunk may be transformed. */
    int maxLoadDistance = 24;
    /** C4 incremental-preloading rounds: how many times one window
     * may pin its heaviest preloader into W and re-plan. */
    int maxFallbackRounds = 2;
    /**
     * Explicit preload list (paper Section 5.4: "weights can also be
     * explicitly specified by directly adding their names to the
     * preload list |W|"): weights are pinned into W, in consumer
     * order, until this fraction of total weight bytes is covered.
     * The latency-priority end of the Figure-8 trade-off.
     */
    double minPreloadFraction = 0.0;
    /** Inert: the planner keeps no memo (see PlanMemo). */
    PlanMemo *memo = nullptr;
    /**
     * Merge-time capacity re-balancing (second merge pass): after the
     * ordered commit, weights that were budget-truncated into the
     * preload set are topped up from capacity that earlier windows
     * reserved greedily but did not use. Deterministic (sequential,
     * consumer order) and purely plan-improving: every moved chunk
     * lowers |W| without violating C2/C3, since it only consumes
     * residual capacity and in-flight headroom left in the
     * authoritative ledgers.
     */
    bool mergeRebalance = true;
    /** Window-solve parallelism (plan stays byte-identical). */
    ParallelPlanParams parallel;
};

/** Offline-stage statistics (paper Table 4 columns). */
struct PlanStats
{
    /**
     * Per-window solve summary, in window (layer) order — the order
     * futures are consumed in, so the vector is identical for any
     * solver thread count. Consumed by the obs tracing layer
     * (SolverWindow events) and available for triage.
     */
    struct WindowSolveSummary
    {
        int window = 0;
        solver::SolveStatus status = solver::SolveStatus::Optimal;
        /** The final round's flow broke C2, so the window shipped the
         * staged greedy warm start (pinned weights fully preloaded). */
        bool usedGreedy = false;
        /** C4 tier-2 pins this window took (PlanStats::forcedPreloads). */
        int forcedPreloads = 0;
        /** The final round was settled by the min-cost flow (its
         * solution satisfied C2). */
        bool flow = false;
        /** The window had no weights to place, so nothing was solved
         * (counted in PlanStats::emptyWindows, never as optimal). */
        bool empty = false;
        /** @name Window objectives (lambda/mu-scaled CP units).
         * hintObjective is the greedy warm start's; flowBound the last
         * flow round's certified lower bound (windowFlowBound());
         * objective the shipped solution's, before the merge clamp. A
         * flow round whose objective equals its bound is Optimal. @{ */
        std::int64_t hintObjective = 0;
        std::int64_t flowBound = 0;
        std::int64_t objective = 0;
        /** @} */
        /** @name Round 0's flow cost, and the greedy warm start's cost
         * on the same arcs (kFlowCostScale-scaled; flowCost <=
         * hintFlowCost, since the greedy is a feasible flow). @{ */
        std::int64_t flowCost = 0;
        std::int64_t hintFlowCost = 0;
        /** @} */
    };

    double processNodesSeconds = 0.0;   ///< graph analysis + capacities
    double stageSeconds = 0.0;          ///< window staging (sequential)
    /** Inert, always 0: no CP model is built. */
    double buildModelSeconds = 0.0;
    /** Wall-clock of the (parallel) solve phase — the Table-4 column. */
    double solveSeconds = 0.0;
    /** Per-window solve time summed across workers (CPU-ish). */
    double solveCpuSeconds = 0.0;
    double mergeSeconds = 0.0;          ///< ordered commit + validation bookkeeping
    solver::SolveStatus overallStatus = solver::SolveStatus::Optimal;
    /** optimal + feasible + greedy + empty windows. */
    int windows = 0;
    int optimalWindows = 0;
    int feasibleWindows = 0;
    /** Windows with no weights to place (nothing solved). */
    int emptyWindows = 0;
    /** Inert, always 0: the soft-threshold relax tier is retired. */
    int softRelaxations = 0;
    int forcedPreloads = 0;             ///< C4 tier-2 pins
    /** Windows whose C2-binding final round shipped the greedy start. */
    int greedyWindows = 0;
    /** Windows whose final round the min-cost flow settled. */
    int flowWindows = 0;
    /** @name WindowSolveSummary objectives, summed over windows. @{ */
    std::int64_t hintObjective = 0;
    std::int64_t flowBound = 0;
    std::int64_t objective = 0;
    /** @} */
    int threads = 1;                    ///< worker threads used to solve
    /** @name Merge-time re-balancing (second merge pass). @{ */
    std::int64_t rebalancedChunks = 0;  ///< chunks moved W -> streamed
    int rebalancedWeights = 0;          ///< truncated weights topped up
    /** @} */
    /** @name Inert, always 0: nothing is searched. Kept for readers
     * that still report the retired CP search's counters. @{ */
    std::uint64_t solverDecisions = 0;
    std::uint64_t solverRestarts = 0;
    std::uint64_t solverPropagations = 0;
    std::uint64_t solverConflicts = 0;
    int symmetryRows = 0;
    /** @} */
    std::vector<WindowSolveSummary> windowSummaries;
};

/** Produces overlap plans for one graph on one device. */
class LcOpgPlanner
{
  public:
    /**
     * @param g graph to plan (post-fusion).
     * @param capacity provider of per-layer load capacities.
     * @param kernel_model device kernel model (for specs).
     * @param params hyper-parameters.
     */
    LcOpgPlanner(const graph::Graph &g,
                 const profiler::CapacityProvider &capacity,
                 const gpusim::KernelModel &kernel_model,
                 OpgParams params = {});

    /** Run LC-OPG; always returns a valid plan. */
    OverlapPlan plan(PlanStats *stats = nullptr);

    /**
     * Re-plan under a different in-flight memory budget (on-device
     * re-planning: the multi-DNN scheduler shifts a model's residual
     * capacity share when co-resident models are admitted or evicted).
     * Reuses the graph analysis of the first plan() call — only the
     * staging/solve/merge phases re-run. Each window round costs one
     * min-cost flow, plus a greedy copy where C2 binds: the 33 replans
     * of the model-zoo 50/25/10% ladder take about 0.07 s together
     * (4 threads, RelWithDebInfo, 4-vCPU Xeon).
     * Deterministic for any thread count, like plan().
     */
    OverlapPlan replan(Bytes mPeak, PlanStats *stats = nullptr);

    /** Per-layer capacities in chunks (after analysis). */
    const std::vector<std::int64_t> &layerCapacities() const
    {
        return capacity_chunks_;
    }

  private:
    struct WindowResult
    {
        bool usedGreedy = false;
        int forcedPreloads = 0;
        solver::SolveStatus status = solver::SolveStatus::Optimal;
        double solveSeconds = 0.0;
        /** @name See PlanStats::WindowSolveSummary. @{ */
        bool flow = false;
        std::int64_t flowBound = 0;
        std::int64_t objective = 0;
        std::int64_t flowCost = 0;
        std::int64_t hintFlowCost = 0;
        /** @} */
    };

    /**
     * Greedy latest-feasible chunk placement for the given weights;
     * returns per-weight (assignments, preload leftovers). Used as the
     * solution of C2-binding rounds, the flow's cost yardstick, and the
     * staged capacity reservation that decouples windows for parallel
     * solving.
     */
    struct GreedyOut
    {
        // Parallel to the weight list handed in.
        std::vector<std::vector<std::pair<graph::NodeId, std::int64_t>>>
            assignments;
        std::vector<std::int64_t> preload;
    };

    /**
     * Everything one window solve needs, captured up front by the
     * sequential staging pass: the weight slice, candidate layers,
     * greedy warm start, and snapshots of the staged residual-capacity
     * and in-flight ledgers. Once staged, solveWindow() is a pure
     * function of this struct (plus the read-only planner fields), so
     * windows solve concurrently and deterministically.
     */
    struct WindowInput
    {
        graph::NodeId start = 0;
        graph::NodeId end = 0;
        std::vector<graph::WeightId> weights;       // consumer order
        std::vector<std::vector<graph::NodeId>> cands;
        graph::NodeId minCand = 0;
        GreedyOut greedy;
        std::vector<std::int64_t> residual;         // staged snapshot
        std::vector<std::int64_t> inflight;         // staged snapshot
    };

    /** Extracted window solution + stats. */
    struct WindowOutput
    {
        WindowResult result;
        std::vector<std::int64_t> preload;          // per weight
        std::vector<std::vector<std::pair<graph::NodeId, std::int64_t>>>
            assign;
        std::vector<graph::NodeId> z;
    };

    /** Analyze graph: kernel specs, capacities, chunk counts. */
    void processNodes();

    /**
     * Stage one window [start, end): collect its weights/candidates,
     * compute the greedy warm start against the staging ledgers, then
     * reserve the greedy's capacity in them (so later windows stage
     * against this window's expected usage).
     */
    WindowInput stageWindow(graph::NodeId start, graph::NodeId end,
                            std::vector<std::int64_t> &staging_residual,
                            std::vector<std::int64_t> &staging_inflight)
        const;

    /**
     * One window's rounds, a pure function of @p in (see WindowInput):
     * each round ships the min-cost flow when it satisfies C2, the
     * greedy warm start otherwise, then C4 tier 2 may pin a weight and
     * start the next round.
     */
    WindowOutput solveWindow(const WindowInput &in) const;

    /**
     * One round's transportation core (core/window_flow.hh): weights
     * and arcs in @p in's order, layers indexed from in.minCand,
     * streamChunkCost() per streamed chunk and kFlowCostScale * lambda
     * per preloaded one; pinned (@p forced) weights get no arcs.
     */
    WindowFlowProblem flowProblem(const WindowInput &in,
                                  const std::vector<bool> &forced) const;

    /**
     * Solve round @p round of @p in as a min-cost flow. When the flow
     * satisfies C2 on the staged in-flight snapshot, extract it into
     * @p out (z_w = earliest layer used) and return true; otherwise
     * the round ships the greedy start (applyGreedy).
     */
    bool flowRound(const WindowInput &in, int round,
                   const std::vector<bool> &forced, WindowOutput &out) const;

    /**
     * C4 tier 2 on round @p round's extracted solution: when capacity
     * pressure forced most of the window into W, pin the heaviest
     * offender in @p forced. @return true when a weight was pinned and
     * the window needs another round.
     */
    bool pinHeaviestPreload(const WindowInput &in, int round,
                            std::vector<bool> &forced,
                            WindowOutput &out) const;

    /** CP window objective of a placement, z_w = earliest layer used
     * (i_w when none) for weights with candidates. */
    std::int64_t windowObjective(
        const WindowInput &in, const std::vector<std::int64_t> &preload,
        const std::vector<std::vector<std::pair<graph::NodeId,
                                                std::int64_t>>> &assign)
        const;

    /** Fill @p out from the staged greedy warm start, with the
     * @p forced weights fully preloaded. */
    void applyGreedy(const WindowInput &in, const std::vector<bool> &forced,
                     WindowOutput &out) const;

    /**
     * Merge one window's solution into the plan and the authoritative
     * residual/in-flight ledgers, in window order. Assignments that
     * exceed the real residual capacity (possible when a window's
     * solver used more of a shared layer than the greedy reservation
     * staged for it) are clamped, with the overflow moved to the
     * preload set — validity is unconditional.
     */
    void commitWindow(const WindowInput &in, const WindowOutput &out,
                      OverlapPlan &plan);

    /**
     * Second merge pass (cross-window capacity re-balancing): walk the
     * committed plan in consumer order and move budget-truncated
     * preload chunks into residual capacity that earlier windows
     * reserved but did not use. Runs after every window committed, so
     * the authoritative ledgers are final; every top-up is validated
     * against them (and the in-flight headroom) before it lands.
     */
    void rebalanceMerge(OverlapPlan &plan, PlanStats &stats);

    GreedyOut greedyAssign(
        const std::vector<graph::WeightId> &weights,
        const std::vector<std::int64_t> &residual_capacity,
        const std::vector<std::int64_t> &inflight_used) const;

    const graph::Graph &g_;
    const profiler::CapacityProvider &capacity_;
    const gpusim::KernelModel &kernel_model_;
    OpgParams params_;
    WeightSlicer slicer_;

    // processNodes() outputs (budget-independent; computed once and
    // reused across replan() calls).
    bool processed_ = false;
    std::vector<gpusim::KernelSpec> specs_;          // per layer
    std::vector<std::int64_t> capacity_chunks_;      // C_l per layer
    std::vector<std::int64_t> chunk_count_;          // T(w) per weight
    std::vector<bool> pinned_preload_;               // explicit W list
    // Authoritative cross-window ledgers (written only at merge).
    std::vector<std::int64_t> residual_capacity_;    // C_l minus spent
    std::vector<std::int64_t> inflight_used_;        // M_peak usage/layer
};

} // namespace flashmem::core

#endif // FLASHMEM_CORE_LC_OPG_HH
