/**
 * @file
 * The overlap plan: the artifact LC-OPG produces offline and the runtime
 * consumes (paper Section 3). For every weight it records how many
 * chunks are preloaded at initialization, which layers transform the
 * remaining chunks inline (the x_{w,l} assignments), and the earliest
 * disk-load layer z_w.
 */

#ifndef FLASHMEM_CORE_OVERLAP_PLAN_HH
#define FLASHMEM_CORE_OVERLAP_PLAN_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/weight_slicer.hh"
#include "graph/graph.hh"
#include "solver/solver.hh"

namespace flashmem::core {

/** x_{w,l}: chunks of one weight transformed inline by one layer. */
struct ChunkAssignment
{
    graph::WeightId weight = -1;
    graph::NodeId layer = graph::kInvalidNode;
    std::int64_t chunks = 0;
};

/** Per-weight schedule extracted from the solver. */
struct WeightSchedule
{
    graph::WeightId weight = -1;
    /** Chunks loaded + transformed during initialization (subset of W;
     * equal to T(w) means the weight is fully in the preload set). */
    std::int64_t preloadChunks = 0;
    /** z_w: layer whose start triggers the disk read for the streamed
     * chunks; kInvalidNode when everything is preloaded. */
    graph::NodeId earliestLoadLayer = graph::kInvalidNode;
};

/** Complete overlap plan for one (possibly fused) graph. */
class OverlapPlan
{
  public:
    OverlapPlan() = default;
    OverlapPlan(const graph::Graph &g, Bytes chunk_bytes);

    Bytes chunkBytes() const { return chunk_bytes_; }

    /** @name Construction (planner-side). @{ */
    void setPreloadChunks(graph::WeightId w, std::int64_t chunks);
    void setEarliestLoad(graph::WeightId w, graph::NodeId layer);
    void addAssignment(graph::WeightId w, graph::NodeId layer,
                       std::int64_t chunks);
    /** @} */

    /** @name Queries (runtime-side). @{ */
    const WeightSchedule &schedule(graph::WeightId w) const;
    /** Assignments executed by layer @p l, in weight order. */
    const std::vector<ChunkAssignment> &assignmentsAt(
        graph::NodeId l) const;
    /** Total bytes the init phase preloads (the |W| memory term). */
    Bytes preloadBytes(const graph::Graph &g) const;
    /** Bytes streamed inline (not preloaded). */
    Bytes streamedBytes(const graph::Graph &g) const;
    /** Fraction of weight bytes streamed via overlap (Figure 8). */
    double overlapFraction(const graph::Graph &g) const;
    /** Inline bytes layer @p l transforms. */
    Bytes inlineBytesAt(const graph::Graph &g, graph::NodeId l) const;
    /** @} */

    /**
     * Check plan invariants against @p g:
     *  C0 — every weight's chunks are fully covered by preload +
     *       assignments;
     *  C1 — z_w is no later than the first assigned layer;
     *  assignments land strictly before the consuming layer.
     */
    bool validate(const graph::Graph &g, bool fatal_on_error = true) const;

    /** One-line human summary. */
    std::string summary(const graph::Graph &g) const;

    /** Stable text serialization (one record per line). */
    std::string serialize() const;
    /** Parse serialize() output; fatal on malformed input. */
    static OverlapPlan deserialize(const std::string &text);

  private:
    Bytes chunk_bytes_ = mib(1);
    std::vector<WeightSchedule> schedules_;          // by WeightId
    std::vector<std::vector<ChunkAssignment>> by_layer_; // by NodeId
};

/**
 * Memo of finished window solves (solve records).
 *
 * Repeated planning calls — replans at another budget, capacity
 * sweeps, multi-model workloads, recompiles of the same model —
 * rebuild window models that differ from an earlier round only in row
 * bounds, or not at all. A round whose solve a kept record would
 * reproduce bit for bit (solver::replaysRecord: same parameters, hint,
 * domains, rows up to bounds the recorded search never reached)
 * takes the recorded result instead of searching. A replay is exact,
 * so plans are a function of the planner's inputs only: a memo changes
 * how fast a plan is found, never which plan.
 *
 * Bounded (kSolveRecords, LRU) and memory only. The global() instance
 * is shared process-wide and internally synchronized (findSolve()
 * hands back a copy, never a pointer into the memo).
 */
class PlanMemo
{
  public:
    PlanMemo() = default;
    PlanMemo(const PlanMemo &) = delete;
    PlanMemo &operator=(const PlanMemo &) = delete;

    /** Drop every solve record and zero the stats. */
    void clear();

    /**
     * Solve records kept at most. Enough for every window round of a
     * model-zoo compile pass plus its replans; a window model is at
     * most ~1 MB, so the bound also caps the memory they take.
     */
    static constexpr std::size_t kSolveRecords = 256;

    /**
     * Keep @p record for findSolve(), evicting the least recently
     * used record (fingerprint tie-break) when full. Records that
     * stopped on the wall clock are refused: they replay nothing.
     * @return whether the record was kept.
     */
    bool storeSolve(solver::SolveRecord record);

    /**
     * The result of a kept record that solving @p model from @p hint
     * under @p params would reproduce bit for bit
     * (solver::replaysRecord), with wallSeconds zeroed; nullopt when
     * no record qualifies. Candidates are found by shape fingerprint
     * and always verified exactly.
     */
    std::optional<solver::SolveResult> findSolve(
        const solver::CpModel &model,
        const std::vector<std::int64_t> &hint,
        const solver::SolverParams &params);

    std::size_t
    solveRecordCount() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return solves_.size();
    }

    /** Copies of the kept records, oldest store first (for triage
     * and tests: they are real window models with their solves). */
    std::vector<solver::SolveRecord> solveRecords() const;

    /**
     * Counters since construction (or clear()): a hit is a findSolve()
     * that replayed a record, a miss one that found none (the round
     * searched); stores and evictions count kept and dropped records.
     */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        std::uint64_t evictions = 0;
    };
    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return stats_;
    }

    /** Process-wide memo shared by all planners. */
    static PlanMemo &global();

  private:
    struct SolveSlot
    {
        std::uint64_t shape = 0; ///< CpModel::shapeFingerprint()
        std::uint64_t lastUse = 0;
        solver::SolveRecord record;
    };

    mutable std::mutex mu_;
    Stats stats_;
    /** Recency clock for the LRU. */
    std::uint64_t clock_ = 0;
    /** Solve records in store order. */
    std::vector<SolveSlot> solves_;
};

} // namespace flashmem::core

#endif // FLASHMEM_CORE_OVERLAP_PLAN_HH
