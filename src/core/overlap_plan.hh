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

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
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
 * Memo of CP incumbents keyed by CpModel fingerprint.
 *
 * Repeated planning calls — capacity sweeps, multi-model workloads,
 * adaptive-fusion rounds that leave most windows untouched — rebuild
 * byte-identical CP models. The memo hands the previous incumbent back
 * as a warm-start hint, so the solver starts with a tight bound (and,
 * for a previously proven optimum, often only has to re-prove
 * optimality). Entries are validated against the model before use, so a
 * fingerprint collision costs only a discarded hint, never correctness.
 *
 * Bounded LRU; the global() instance is shared process-wide and
 * internally synchronized (lookup() hands back a copy, never a pointer
 * into the map), so concurrent window solves can share it. Note that
 * warm starts make budget-truncated planning history-dependent within
 * a process: equal-footing A/B comparisons should clear() between arms
 * (see bench_fig7 / ablation tests).
 *
 * A memo constructed with @p memoPath is file-backed: entries load on
 * construction (silently starting empty when the file is missing,
 * corrupt, or a different format version) and save on destruction, so
 * CLI tools and benches warm-start across process launches. The file
 * is a versioned binary keyed by CpModel fingerprint.
 *
 * Besides incumbents the memo keeps solve records (storeSolve /
 * findSolve): whole finished window solves, so a replan at another
 * budget skips every solve the budget cannot reach. Records live in
 * memory only: they are bounded (kSolveRecords, LRU), cleared by
 * clear(), never serialized, and touch neither the incumbents nor
 * their recency, so the memo file's bytes do not depend on them.
 */
class PlanMemo
{
  public:
    explicit PlanMemo(std::size_t capacity = 1024,
                      std::string memoPath = {})
        : capacity_(std::max<std::size_t>(capacity, 1)),
          memo_path_(std::move(memoPath))
    {
        if (!memo_path_.empty())
            loadFromFile(memo_path_);
    }

    ~PlanMemo()
    {
        if (!memo_path_.empty())
            saveToFile(memo_path_);
    }

    PlanMemo(const PlanMemo &) = delete;
    PlanMemo &operator=(const PlanMemo &) = delete;

    /** Cached incumbent for @p fingerprint, if any. */
    std::optional<std::vector<std::int64_t>> lookup(
        std::uint64_t fingerprint);

    /**
     * Remember @p values as the incumbent for @p fingerprint.
     * @return true if the entry was inserted or improved; false when
     * an existing entry with an equal-or-better objective was kept.
     */
    bool store(std::uint64_t fingerprint,
               std::vector<std::int64_t> values,
               std::int64_t objective);

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return entries_.size();
    }
    std::size_t capacity() const { return capacity_; }
    /** Drop every incumbent and solve record, and zero the stats. */
    void clear();

    /** @name Solve records (memory only; see class comment). @{ */
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
    /** @} */

    /** Hit/miss/store counters since construction (or clear()). */
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

    /**
     * Replace the contents with the entries serialized in @p path.
     * @return false — leaving the previous contents untouched — when
     * the file is absent, truncated, fails its payload checksum
     * (bit-flips anywhere in the body), or is not a supported format
     * version. A rejected file is never partially loaded: the caller
     * simply cold-starts with an empty memo.
     */
    bool loadFromFile(const std::string &path);

    /** Serialize every entry to @p path (versioned, checksummed
     * binary). */
    bool saveToFile(const std::string &path) const;

    /** Backing file ("" when the memo is memory-only). */
    const std::string &memoPath() const { return memo_path_; }

    /** On-disk format version written by saveToFile(). Version 2
     * added a trailing FNV-1a checksum over the payload; version-1
     * files are rejected (cold start) rather than trusted unchecked. */
    static constexpr std::uint32_t kFileVersion = 2;

  private:
    struct Entry
    {
        std::vector<std::int64_t> values;
        std::int64_t objective = 0;
        std::uint64_t lastUse = 0;
    };

    struct SolveSlot
    {
        std::uint64_t shape = 0; ///< CpModel::shapeFingerprint()
        std::uint64_t lastUse = 0;
        solver::SolveRecord record;
    };

    void evictIfNeeded(); // caller holds mu_

    const std::size_t capacity_;
    const std::string memo_path_;
    mutable std::mutex mu_;
    std::uint64_t clock_ = 0;
    std::unordered_map<std::uint64_t, Entry> entries_;
    Stats stats_;
    /** Solve records in store order; own recency clock. */
    std::uint64_t solve_clock_ = 0;
    std::vector<SolveSlot> solves_;
};

} // namespace flashmem::core

#endif // FLASHMEM_CORE_OVERLAP_PLAN_HH
