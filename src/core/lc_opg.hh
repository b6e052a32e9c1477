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
 * The planner follows the paper's implementation notes: incremental
 * scheduling over a rolling layer window keeps each CP-SAT instance
 * small; a greedy warm start seeds the search; and the C4 tiered
 * fallback (soft-threshold relaxation -> incremental preloading ->
 * greedy backup) guarantees a plan within the time limit.
 *
 * Whole-plan generation is a three-phase pipeline (PR 2):
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
#include <future>
#include <vector>

#include "core/overlap_plan.hh"
#include "gpusim/kernel.hh"
#include "profiler/capacity.hh"
#include "solver/solver.hh"

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
    /**
     * CP-SAT search budget per window, in decisions. A decision-based
     * budget keeps planning bit-deterministic across hosts; the
     * solver's own wall-clock limit (SolverParams::timeLimitSeconds)
     * stays at its default, far beyond any window at this budget.
     */
    std::uint64_t solverDecisionsPerWindow = 20000;
    /** C4 soft-threshold relaxation factor per fallback round. */
    double softThresholdGrowth = 1.3;
    /** Fallback rounds before the greedy backup takes over a window. */
    int maxFallbackRounds = 2;
    /**
     * Explicit preload list (paper Section 5.4: "weights can also be
     * explicitly specified by directly adding their names to the
     * preload list |W|"): weights are pinned into W, in consumer
     * order, until this fraction of total weight bytes is covered.
     * The latency-priority end of the Figure-8 trade-off.
     */
    double minPreloadFraction = 0.0;
    /**
     * Memo of solve records to consult and fill; nullptr means
     * PlanMemo::global(). A round whose solve a kept record replays
     * bit for bit (it differs only in row bounds the recorded search
     * never reached) takes the recorded result instead of searching,
     * so the memo changes planning speed, never plans.
     */
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
    /** CP search kernel (Baseline kept for before/after benches). */
    solver::SearchEngine solverEngine = solver::SearchEngine::Trail;
    /**
     * Luby restart base (conflicts) for window solves; 0 = off.
     * Useful on budget-truncated (FEASIBLE) windows, where restarts
     * with solution phase saving keep incumbent quality under the same
     * decision budget; leave off when windows are expected to prove
     * optimality (restart overhead delays exhaustion proofs).
     */
    std::uint64_t restartConflictBase = 0;
    /**
     * Detect interchangeable same-consumer weight blocks (equal T(w),
     * equal candidate layers) at model-build time and add lex-ordering
     * rows so the solver stops exploring permuted duplicates of the
     * same subtree (solver/symmetry.hh). Sound: the verifier proves
     * block-swap invariance exactly before any row is added, and the
     * greedy hint is canonicalized to the chosen order.
     */
    bool symmetryBreaking = true;
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
        bool usedGreedy = false;
        std::uint64_t decisions = 0;
        std::uint64_t propagations = 0;
        std::uint64_t conflicts = 0; ///< search backtracks
        std::uint64_t restarts = 0;
        /**
         * TimeLimit when any fallback round stopped on the solver's
         * wall-clock limit (the window's plan then depends on host
         * speed);
         * otherwise the final round's reason. Exhausted for windows
         * that never ran the solver.
         */
        solver::StopReason stopReason = solver::StopReason::Exhausted;
        /** Rounds answered by a PlanMemo solve record, not a search. */
        int reusedRounds = 0;
    };

    double processNodesSeconds = 0.0;   ///< graph analysis + capacities
    double stageSeconds = 0.0;          ///< window staging (sequential)
    double buildModelSeconds = 0.0;     ///< CP model construction (CPU, summed)
    /** Wall-clock of the (parallel) solve phase — the Table-4 column. */
    double solveSeconds = 0.0;
    /** Per-window solve time summed across workers (CPU-ish). */
    double solveCpuSeconds = 0.0;
    double mergeSeconds = 0.0;          ///< ordered commit + validation bookkeeping
    solver::SolveStatus overallStatus = solver::SolveStatus::Optimal;
    int windows = 0;
    int optimalWindows = 0;
    int feasibleWindows = 0;
    int softRelaxations = 0;            ///< C4 tier-1 events
    int forcedPreloads = 0;             ///< C4 tier-2 events
    int greedyWindows = 0;              ///< C4 tier-3 events
    /** Windows whose search stopped on the solver's wall-clock limit
     * (SolverParams::timeLimitSeconds) in any fallback round. */
    int timeLimitedWindows = 0;
    int threads = 1;                    ///< worker threads used to solve
    /** @name Merge-time re-balancing (second merge pass). @{ */
    std::int64_t rebalancedChunks = 0;  ///< chunks moved W -> streamed
    int rebalancedWeights = 0;          ///< truncated weights topped up
    /** @} */
    std::uint64_t solverDecisions = 0;
    std::uint64_t solverRestarts = 0;   ///< Luby restarts across windows
    /** Window rounds whose solve a PlanMemo solve record replayed
     * (PlanMemo::findSolve); their counters are the recorded ones. */
    int reusedRounds = 0;
    std::uint64_t solverPropagations = 0; ///< constraint revisions
    std::uint64_t solverConflicts = 0;    ///< search backtracks
    /** Symmetry-breaking lex rows added across all window models. */
    int symmetryRows = 0;
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
     * staging/solve/merge phases re-run. A round whose budget change
     * cannot reach its search replays a kept solve record instead of searching
     * (PlanStats::reusedRounds), so a replan costs about its model
     * builds when every round replays and a cold plan when none does:
     * on the model-zoo 50/25/10% ladder, 2.5-66 ms per replan, up to
     * 0.41 s for SD-UNet at 10% (Release, 4 threads, 4-vCPU Xeon).
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
        int softRelaxations = 0;
        int forcedPreloads = 0;
        solver::SolveStatus status = solver::SolveStatus::Optimal;
        std::uint64_t decisions = 0;
        std::uint64_t propagations = 0;
        std::uint64_t conflicts = 0; ///< search backtracks
        std::uint64_t restarts = 0;
        double buildSeconds = 0.0;
        double solveSeconds = 0.0;
        int reusedRounds = 0;
        /** See PlanStats::WindowSolveSummary::stopReason. */
        solver::StopReason stopReason = solver::StopReason::Exhausted;
        int lexRows = 0;        ///< symmetry-breaking rows added
    };

    /**
     * Greedy latest-feasible chunk placement for the given weights;
     * returns per-weight (assignments, preload leftovers). Used as the
     * warm start, the tier-3 fallback, and the staged capacity
     * reservation that decouples windows for parallel solving.
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
     * One C4 fallback round's CP model, built on the driver thread:
     * the window model (C0-C3), symmetry-breaking lex rows over
     * verified-interchangeable weight blocks, and the canonicalized
     * greedy warm-start hint.
     * Once built it is immutable, so a pool task can solve it while
     * the driver thread builds the next window's model.
     */
    struct RoundModel
    {
        solver::CpModel model;
        std::vector<std::int64_t> hint;
        std::vector<solver::VarId> y_vars;
        std::vector<solver::VarId> z_vars; // -1 when fully preloaded
        std::vector<std::vector<solver::VarId>> x_vars;
        /** The round's result came from PlanMemo::findSolve. */
        bool reused = false;
        int lexRows = 0;
        double buildSeconds = 0.0;
    };

    /**
     * Per-window driver state for the flattened solve phase: plan()
     * submits one task per (window, round) to the shared pool and
     * interprets round results in window order, so the C4 fallback
     * tiers (relax/forced) advance exactly as they did when each
     * window ran its rounds inside one task.
     */
    struct WindowSolveState
    {
        const WindowInput *in = nullptr;
        bool done = false;
        bool useGreedy = false;
        int round = 0;
        double relax = 1.0;
        std::vector<bool> forced;
        RoundModel rm;
        std::future<solver::SolveResult> solve;
        WindowOutput out;
    };

    /** Build one round's model for @p in (pure; see RoundModel). */
    RoundModel buildWindowModel(const WindowInput &in, double relax,
                                const std::vector<bool> &forced) const;

    /**
     * Fold one round's solve result into @p st: accumulate stats,
     * extract the solution or advance the C4 tier state. @return true
     * when the window is done (solution extracted or demoted to the
     * greedy backup).
     */
    bool interpretRound(WindowSolveState &st,
                        const solver::SolveResult &r) const;

    /** Fill @p out from the staged greedy solution (tier 3). */
    void applyGreedy(const WindowInput &in, WindowOutput &out) const;

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

    /** Memo instance window solves consult (params_.memo or global). */
    PlanMemo &memoRef() const;

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
