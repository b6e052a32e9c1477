/**
 * @file
 * Symmetry detection and breaking for OPG window models.
 *
 * A window model contains one block of variables per weight
 * (preload amount, per-layer load amounts, earliest-load layer).
 * Two weights with the same chunk count, the same consumer layer and
 * the same candidate-layer set are interchangeable: swapping their
 * entire variable blocks maps every constraint onto another constraint
 * of the model and preserves the objective, so the solver would
 * otherwise explore every permutation of the same subtree. This module
 *
 *   1. verifies interchangeability exactly (multiset comparison of the
 *      swapped constraint system — no hashing, no false positives),
 *   2. groups interchangeable blocks deterministically, and
 *   3. breaks each group with a chain of single-row "leader function"
 *      orderings f(B_k) <= f(B_{k+1}) that keep at least one optimal
 *      solution while pruning permuted duplicates.
 *
 * Soundness: each verified adjacent transposition is a
 * satisfaction- and objective-preserving bijection on assignments, so
 * the group they generate contains every permutation of the group's
 * blocks. Any solution can therefore be bubble-sorted into one whose
 * blocks are ordered by f using only model-preserving swaps, which
 * means the lex chain removes no objective value from the feasible
 * set. A single linear f per adjacent pair is used instead of two
 * independent per-variable chains because independent chains can cut
 * both a solution and its mirror (losing optimality); sorting by one
 * scalar cannot.
 */

#ifndef FLASHMEM_SOLVER_SYMMETRY_HH
#define FLASHMEM_SOLVER_SYMMETRY_HH

#include <cstdint>
#include <vector>

#include "solver/model.hh"

namespace flashmem::solver {

/**
 * One candidate symmetry unit: the ordered variables of one weight
 * (e.g. [y, x_0..x_{m-1}, z]). Blocks offered for grouping must be
 * pairwise disjoint and position-aligned (position i of block A is
 * swapped with position i of block B).
 */
struct VarBlock
{
    std::vector<VarId> vars;
};

/**
 * Exact interchangeability check: true iff swapping the blocks
 * position-wise maps the model onto itself (equal per-position
 * domains and objective coefficients, and the swapped constraint and
 * implication multisets equal the originals). Rows that mention
 * neither block are fixed by the swap, so only the rows watching a
 * block variable are compared. Overlapping or length-mismatched
 * blocks are never interchangeable.
 */
bool blocksInterchangeable(const CpModel &model, const VarBlock &a,
                           const VarBlock &b);

/**
 * Partition block indices into interchangeability groups. Groups are
 * chains: each block is appended to the first group whose last member
 * it is interchangeable with, preserving input order, so consecutive
 * group members are verified pairs. Only groups of two or more blocks
 * are returned (singletons carry no symmetry). The per-model state of
 * the check (objective vector, permutation) is built once.
 */
std::vector<std::vector<int>>
groupInterchangeableBlocks(const CpModel &model,
                           const std::vector<VarBlock> &blocks);

/**
 * Add one leader-function ordering row per consecutive pair in each
 * group: f(B_k) - f(B_{k+1}) <= 0 with positional weights that form
 * an exact lexicographic order until the running domain product
 * overflows a fixed cap (then a sound, coarser linear order).
 * Returns the number of rows added.
 */
int addSymmetryBreaking(CpModel &model,
                        const std::vector<VarBlock> &blocks,
                        const std::vector<std::vector<int>> &groups);

/**
 * Permute @p hint block-wise so every group is sorted by its leader
 * function (stable, so equal-f blocks keep their order). A hint that
 * satisfied the model before addSymmetryBreaking() satisfies the lex
 * rows after canonicalization; hints are re-validated downstream
 * regardless.
 */
void canonicalizeHint(const CpModel &model,
                      const std::vector<VarBlock> &blocks,
                      const std::vector<std::vector<int>> &groups,
                      std::vector<std::int64_t> &hint);

} // namespace flashmem::solver

#endif // FLASHMEM_SOLVER_SYMMETRY_HH
