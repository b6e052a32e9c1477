/**
 * @file
 * Branch-and-bound CP solver with interval (bounds) propagation.
 *
 * Two search engines share the statuses and semantics:
 *
 *   Trail (default) — trail-based undo stack (only changed bounds are
 *   recorded and rewound on backtrack), watch-list dirty-queue
 *   propagation (only constraints whose variables changed are
 *   revisited), an incrementally maintained objective lower bound, and
 *   heap-based first-fail variable selection with activity tie-breaking.
 *
 *   Baseline — the seed DFS that copies full lb/ub vectors per decision
 *   node and re-scans every constraint per propagation pass. Kept as a
 *   differential-testing oracle for Trail.
 *
 * Search: first-fail variable selection, objective-aware value ordering,
 * incumbent-driven bounding, wall-clock + decision limits. Statuses
 * mirror CP-SAT: Optimal (search exhausted with incumbent), Feasible
 * (limit hit with incumbent), Infeasible (exhausted without incumbent),
 * Unknown (limit hit without incumbent).
 *
 * LC-OPG does not call this solver: every window is settled by the
 * min-cost flow or ships the greedy warm start (core/lc_opg.hh). It
 * stays a standalone engine over CpModel, read only by its own tests,
 * until ROADMAP item 1(c) retires it (solver/README.md).
 */

#ifndef FLASHMEM_SOLVER_SOLVER_HH
#define FLASHMEM_SOLVER_SOLVER_HH

#include <cstdint>
#include <vector>

#include "solver/model.hh"

namespace flashmem::solver {

/**
 * Why solve() stopped searching. Exhausted means the search space was
 * covered (the status is then Optimal or Infeasible); the two limits
 * leave a budget-truncated Feasible or Unknown result. DecisionLimit
 * is deterministic; TimeLimit depends on host speed and load.
 */
enum class StopReason { Exhausted, DecisionLimit, TimeLimit };

/** Which search kernel solve() runs (see file comment). */
enum class SearchEngine { Trail, Baseline };

/** Human-readable engine name ("trail", "baseline"). */
const char *searchEngineName(SearchEngine engine);

/** Search limits and tunables. */
struct SolverParams
{
    double timeLimitSeconds = 150.0;  ///< paper Table 4 uses 150 s
    std::uint64_t maxDecisions = 0;   ///< 0 = unlimited
    SearchEngine engine = SearchEngine::Trail;
    /**
     * Luby restart base, in conflicts (Trail only; 0 disables).
     * Restart i aborts the current dive after luby(i) * base conflicts
     * and re-descends from the root with solution phase saving: value
     * ordering follows the incumbent, so restarted searches keep (and
     * typically improve) incumbent quality under the same decision
     * budget. Restarting is conflict-counted, hence deterministic.
     * The strategy stays complete: the limit grows without bound, so
     * an exhaustive pass eventually fits inside one restart window —
     * but proving optimality can take more decisions than a single
     * uninterrupted dive.
     */
    std::uint64_t restartConflictBase = 0;
};

/** Result of a solve: status, assignment, objective, search stats. */
struct SolveResult
{
    SolveStatus status = SolveStatus::Unknown;
    std::vector<std::int64_t> values;
    std::int64_t objective = 0;
    std::uint64_t decisions = 0;
    /** Constraint revisions (Trail) / full passes (Baseline). */
    std::uint64_t propagations = 0;
    std::uint64_t backtracks = 0;
    /** Luby restarts taken (Trail with restartConflictBase > 0). */
    std::uint64_t restarts = 0;
    double wallSeconds = 0.0;
    StopReason stopReason = StopReason::Exhausted;

    bool
    feasible() const
    {
        return status == SolveStatus::Optimal ||
               status == SolveStatus::Feasible;
    }

    std::int64_t value(VarId v) const { return values.at(v); }
};

/** Branch-and-bound solver over a CpModel. */
class CpSolver
{
  public:
    explicit CpSolver(SolverParams params = {}) : params_(params) {}

    /**
     * Solve @p model, optionally warm-starting from @p hint (a full
     * assignment used as the initial incumbent if it is feasible).
     */
    SolveResult solve(const CpModel &model,
                      const std::vector<std::int64_t> *hint = nullptr);

  private:
    SolverParams params_;
};

} // namespace flashmem::solver

#endif // FLASHMEM_SOLVER_SOLVER_HH
