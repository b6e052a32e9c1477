/**
 * @file
 * Exact integer min-cost flow over the transportation core of one
 * LC-OPG window round.
 *
 * Without C2 (the in-flight bound) and the z-implications, a window
 * round is a transportation problem: each weight sends its T(w) chunks
 * either to the preload set or to one of its candidate layers, each
 * layer absorbs at most its residual capacity (C3), and every
 * weight-layer pair is capped like the CP model's x variable. The
 * network is
 *
 *   source -> weight k          capacity T(w)
 *   weight k -> preload -> sink cost preloadCost[k] per chunk
 *   weight k -> layer l         capacity arcs[k][j].cap, cost .cost
 *   layer l -> sink             capacity layerCap[l] (C3)
 *
 * and solveWindowFlow() returns a minimum-cost flow that places every
 * chunk. It runs successive shortest paths (SPFA over the residual
 * graph, relaxing edges in insertion order and only on strict
 * improvement) in integers, so the result is a pure function of the
 * problem: no floating point, no hashing, no thread dependence.
 */

#ifndef FLASHMEM_CORE_WINDOW_FLOW_HH
#define FLASHMEM_CORE_WINDOW_FLOW_HH

#include <cstdint>
#include <vector>

namespace flashmem::core {

/** Integer scale D of the per-chunk costs. */
inline constexpr std::int64_t kFlowCostScale = 1000;

/**
 * Per-chunk cost, scaled by kFlowCostScale, of transforming one of a
 * weight's @p chunks chunks @p distance = i_w - l layers before its
 * consumer: the CP objective's tie-break (distance - 1) plus its
 * mu-term (@p mu_coef * distance) spread over the chunks and rounded
 * down. A weight's spread terms never exceed the mu * (i_w - z_w) its
 * z variable pays, so a minimum-cost flow bounds the CP window
 * objective from below (windowFlowBound()).
 */
std::int64_t streamChunkCost(std::int64_t distance, std::int64_t chunks,
                             std::int64_t mu_coef);

/**
 * Lower bound on the CP window objective (lambda * sum y + sum x *
 * (i_w - l - 1) - mu * sum z) implied by a minimum flow cost @p cost:
 * ceil(cost / kFlowCostScale) - @p mu_coef * @p consumer_sum, where
 * @p consumer_sum sums i_w over the weights with a z variable.
 */
std::int64_t windowFlowBound(std::int64_t cost, std::int64_t mu_coef,
                             std::int64_t consumer_sum);

/** One window round's transportation core (see file comment). */
struct WindowFlowProblem
{
    /** A weight -> layer arc: the CP model's x variable. */
    struct Arc
    {
        std::size_t layer = 0;  ///< index into layerCap
        std::int64_t cap = 0;   ///< x's upper bound
        std::int64_t cost = 0;  ///< per chunk
    };
    std::vector<std::int64_t> supply;      ///< T(w), per weight
    std::vector<std::int64_t> preloadCost; ///< per chunk, per weight
    /** Per weight, in candidate order. */
    std::vector<std::vector<Arc>> arcs;
    std::vector<std::int64_t> layerCap;    ///< C3 residual, per layer
};

/** A minimum-cost placement of every chunk. */
struct WindowFlow
{
    std::int64_t cost = 0;
    std::vector<std::int64_t> preload;           ///< per weight
    std::vector<std::vector<std::int64_t>> flow; ///< parallel to arcs
};

/** Minimum-cost flow of @p p (see file comment). */
WindowFlow solveWindowFlow(const WindowFlowProblem &p);

/** Cost of @p placement under @p p's per-chunk costs. */
std::int64_t flowCost(const WindowFlowProblem &p,
                      const WindowFlow &placement);

} // namespace flashmem::core

#endif // FLASHMEM_CORE_WINDOW_FLOW_HH
