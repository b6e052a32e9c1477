/**
 * @file
 * Constraint-programming model builder.
 *
 * The paper solves Overlap Plan Generation with Google OR-Tools CP-SAT;
 * this is a from-scratch replacement covering the fragment OPG needs:
 * bounded integer variables, two-sided linear constraints, half-reified
 * implications of the form (x >= t) => (y <= b), and a linear
 * minimization objective.
 */

#ifndef FLASHMEM_SOLVER_MODEL_HH
#define FLASHMEM_SOLVER_MODEL_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace flashmem::solver {

using VarId = int;

/** coef * var contribution to a linear expression. */
struct LinearTerm
{
    VarId var = -1;
    std::int64_t coef = 1;

    bool operator==(const LinearTerm &) const = default;
};

/** lo <= sum(terms) <= hi. */
struct LinearConstraint
{
    std::vector<LinearTerm> terms;
    std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    std::int64_t hi = std::numeric_limits<std::int64_t>::max();
};

/** Half-reified implication: (x >= xThreshold) => (y <= yBound). */
struct Implication
{
    VarId x = -1;
    std::int64_t xThreshold = 1;
    VarId y = -1;
    std::int64_t yBound = 0;

    bool operator==(const Implication &) const = default;
};

/** Declarative CP model: variables, constraints, objective. */
class CpModel
{
  public:
    /** New integer variable with inclusive domain [lb, ub]. */
    VarId newIntVar(std::int64_t lb, std::int64_t ub,
                    std::string name = "");

    /** Add lo <= expr <= hi. */
    void addLinear(std::vector<LinearTerm> terms, std::int64_t lo,
                   std::int64_t hi);

    /** Add expr <= hi. */
    void addLessOrEqual(std::vector<LinearTerm> terms, std::int64_t hi);

    /** Add expr >= lo. */
    void addGreaterOrEqual(std::vector<LinearTerm> terms,
                           std::int64_t lo);

    /** Add expr == value. */
    void addEquality(std::vector<LinearTerm> terms, std::int64_t value);

    /** Add (x >= x_threshold) => (y <= y_bound). */
    void addImplicationGeLe(VarId x, std::int64_t x_threshold, VarId y,
                            std::int64_t y_bound);

    /** Set the linear expression to minimize. */
    void minimize(std::vector<LinearTerm> objective);

    /** @name Introspection (used by the solver and tests). @{ */
    std::size_t varCount() const { return lbs_.size(); }
    std::int64_t lowerBound(VarId v) const { return lbs_[v]; }
    std::int64_t upperBound(VarId v) const { return ubs_[v]; }
    const std::string &varName(VarId v) const { return names_[v]; }
    const std::vector<LinearConstraint> &constraints() const
    {
        return constraints_;
    }
    const std::vector<Implication> &implications() const
    {
        return implications_;
    }
    const std::vector<LinearTerm> &objective() const { return objective_; }
    bool hasObjective() const { return !objective_.empty(); }
    /** @} */

    /** @name Propagation watch lists. @{ */
    /**
     * Constraint indices whose terms mention @p v. The solver's
     * dirty-queue propagation only revisits these when v's bounds
     * change, instead of re-scanning every constraint. Maintained
     * eagerly as the model is built, so const access is safe to share.
     */
    const std::vector<std::int32_t> &constraintsWatching(VarId v) const;
    /** Implication indices where @p v appears as x or y. */
    const std::vector<std::int32_t> &implicationsWatching(VarId v) const;
    /** @} */

    /**
     * True when @p values is a complete assignment satisfying every
     * domain, constraint, and implication.
     */
    bool satisfiedBy(const std::vector<std::int64_t> &values) const;

    /**
     * Structural 64-bit fingerprint (FNV-1a over domains, constraints
     * without their upper bounds, implications, and the objective;
     * names excluded): models that differ only in linear-row hi values
     * (e.g. one window at two memory budgets) share it. Keys the solve
     * records a replan may reuse (see solver::replaysRecord); never
     * trusted without verification.
     */
    std::uint64_t shapeFingerprint() const;

  private:
    void checkVar(VarId v) const;
    void checkTerms(const std::vector<LinearTerm> &terms) const;

    std::vector<std::int64_t> lbs_;
    std::vector<std::int64_t> ubs_;
    std::vector<std::string> names_;
    std::vector<LinearConstraint> constraints_;
    std::vector<Implication> implications_;
    std::vector<LinearTerm> objective_;

    // Eagerly maintained watch lists (see constraintsWatching()).
    std::vector<std::vector<std::int32_t>> varConstraints_;
    std::vector<std::vector<std::int32_t>> varImplications_;
};

} // namespace flashmem::solver

#endif // FLASHMEM_SOLVER_MODEL_HH
