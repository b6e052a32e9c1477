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
 * stays a standalone engine over CpModel, with symmetry breaking
 * (solver/symmetry.hh) and solve reuse (replaysRecord) beside it,
 * until ROADMAP item 1(c) retires it (solver/README.md).
 */

#ifndef FLASHMEM_SOLVER_SOLVER_HH
#define FLASHMEM_SOLVER_SOLVER_HH

#include <cstdint>
#include <limits>
#include <string>
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
    /** Maximum propagation sweeps per node before giving up fixpoint
     * (Baseline engine only; Trail always reaches fixpoint). */
    int maxPropagationPasses = 16;
    SearchEngine engine = SearchEngine::Trail;
    /** Multiplicative activity bump applied per conflict (Trail). */
    double activityDecay = 1.05;
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

    bool operator==(const SolverParams &) const = default;
};

/**
 * What one search saw of one linear row (Trail engine): the largest
 * smin at any revision of the row, and whether any revision tightened
 * a bound or conflicted. A row that never tightened was a no-op at
 * every revision, and stays one under any hi >= maxSmin + the row's
 * widest term span, which is what lets replaysRecord() reuse a solve
 * across budgets.
 */
struct RowCertificate
{
    std::int64_t maxSmin = std::numeric_limits<std::int64_t>::min();
    bool tightened = false;
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
    /** One per linear row (Trail engine); empty for Baseline. */
    std::vector<RowCertificate> rowCertificates;

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

/** A finished solve kept so a later, equivalent one can be skipped. */
struct SolveRecord
{
    CpModel model;
    std::vector<std::int64_t> hint;
    SolverParams params;
    SolveResult result;
};

/**
 * True when CpSolver(params).solve(model, &hint) is certain to return
 * record.result bit for bit: values, status, stop reason, objective
 * and every counter (not wallSeconds). Holds when the two calls agree
 * exactly on params, hint, domains, row terms and lo, implications
 * and objective, the hint is feasible under both models or neither,
 * the record did not stop on the wall clock, and every row whose hi
 * differs never tightened in the recorded search and has
 * hi >= maxSmin + max_k |coef_k| * (ub_k - lb_k). Each revision of
 * such a row is then a no-op under both bounds, so the new search
 * would run in lockstep with the recorded one (solver/README.md,
 * "Solve reuse across budgets").
 */
bool replaysRecord(const SolveRecord &record, const CpModel &model,
                   const std::vector<std::int64_t> &hint,
                   const SolverParams &params);

} // namespace flashmem::solver

#endif // FLASHMEM_SOLVER_SOLVER_HH
