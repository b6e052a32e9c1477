#include "core/overlap_plan.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace flashmem::core {

OverlapPlan::OverlapPlan(const graph::Graph &g, Bytes chunk_bytes)
    : chunk_bytes_(chunk_bytes)
{
    schedules_.resize(g.weightCount());
    for (std::size_t w = 0; w < g.weightCount(); ++w)
        schedules_[w].weight = static_cast<graph::WeightId>(w);
    by_layer_.resize(g.layerCount());
}

void
OverlapPlan::setPreloadChunks(graph::WeightId w, std::int64_t chunks)
{
    FM_ASSERT(w >= 0 && w < static_cast<graph::WeightId>(
                              schedules_.size()),
              "bad weight id ", w);
    FM_ASSERT(chunks >= 0, "negative preload chunks");
    schedules_[w].preloadChunks = chunks;
}

void
OverlapPlan::setEarliestLoad(graph::WeightId w, graph::NodeId layer)
{
    FM_ASSERT(w >= 0 && w < static_cast<graph::WeightId>(
                              schedules_.size()),
              "bad weight id ", w);
    schedules_[w].earliestLoadLayer = layer;
}

void
OverlapPlan::addAssignment(graph::WeightId w, graph::NodeId layer,
                           std::int64_t chunks)
{
    FM_ASSERT(layer >= 0 && layer < static_cast<graph::NodeId>(
                                        by_layer_.size()),
              "bad layer ", layer);
    FM_ASSERT(chunks > 0, "empty assignment");
    by_layer_[layer].push_back({w, layer, chunks});
}

const WeightSchedule &
OverlapPlan::schedule(graph::WeightId w) const
{
    FM_ASSERT(w >= 0 && w < static_cast<graph::WeightId>(
                              schedules_.size()),
              "bad weight id ", w);
    return schedules_[w];
}

const std::vector<ChunkAssignment> &
OverlapPlan::assignmentsAt(graph::NodeId l) const
{
    FM_ASSERT(l >= 0 && l < static_cast<graph::NodeId>(by_layer_.size()),
              "bad layer ", l);
    return by_layer_[l];
}

Bytes
OverlapPlan::preloadBytes(const graph::Graph &g) const
{
    WeightSlicer slicer(chunk_bytes_);
    Bytes total = 0;
    for (const auto &s : schedules_)
        total += slicer.bytesForChunks(g.weight(s.weight),
                                       s.preloadChunks);
    return total;
}

Bytes
OverlapPlan::streamedBytes(const graph::Graph &g) const
{
    return g.totalWeightBytes() - preloadBytes(g);
}

double
OverlapPlan::overlapFraction(const graph::Graph &g) const
{
    Bytes total = g.totalWeightBytes();
    if (total == 0)
        return 0.0;
    return static_cast<double>(streamedBytes(g)) /
           static_cast<double>(total);
}

Bytes
OverlapPlan::inlineBytesAt(const graph::Graph &g, graph::NodeId l) const
{
    WeightSlicer slicer(chunk_bytes_);
    Bytes total = 0;
    for (const auto &a : assignmentsAt(l)) {
        const auto &w = g.weight(a.weight);
        // Bound by the weight's true bytes (short last chunk).
        total += std::min<Bytes>(
            static_cast<Bytes>(a.chunks) * chunk_bytes_, w.bytes());
    }
    return total;
}

bool
OverlapPlan::validate(const graph::Graph &g, bool fatal_on_error) const
{
    auto fail = [&](const std::string &msg) -> bool {
        if (fatal_on_error)
            FM_FATAL("overlap plan for '", g.name(), "': ", msg);
        warn("overlap plan for '", g.name(), "': ", msg);
        return false;
    };

    if (schedules_.size() != g.weightCount() ||
        by_layer_.size() != g.layerCount())
        return fail("plan shape does not match graph");

    WeightSlicer slicer(chunk_bytes_);
    std::vector<std::int64_t> assigned(g.weightCount(), 0);
    std::vector<graph::NodeId> first_layer(g.weightCount(),
                                           graph::kInvalidNode);

    for (std::size_t l = 0; l < by_layer_.size(); ++l) {
        for (const auto &a : by_layer_[l]) {
            if (a.weight < 0 ||
                a.weight >= static_cast<graph::WeightId>(
                                g.weightCount()))
                return fail("assignment references bad weight");
            const auto &w = g.weight(a.weight);
            // Transform must land strictly before the consuming layer.
            if (static_cast<graph::NodeId>(l) >= w.consumer) {
                return fail("weight '" + w.name +
                            "' transformed at/after its consumer");
            }
            assigned[a.weight] += a.chunks;
            if (first_layer[a.weight] == graph::kInvalidNode) {
                first_layer[a.weight] =
                    static_cast<graph::NodeId>(l);
            }
        }
    }

    for (const auto &s : schedules_) {
        const auto &w = g.weight(s.weight);
        std::int64_t total = slicer.chunkCount(w);
        // C0: completeness of allocation.
        if (s.preloadChunks + assigned[s.weight] != total) {
            return fail("weight '" + w.name + "' covers " +
                        std::to_string(s.preloadChunks +
                                       assigned[s.weight]) +
                        " of " + std::to_string(total) + " chunks");
        }
        // C1: z_w no later than the first transforming layer.
        if (assigned[s.weight] > 0) {
            if (s.earliestLoadLayer == graph::kInvalidNode)
                return fail("weight '" + w.name + "' streams but has "
                            "no earliest-load layer");
            if (s.earliestLoadLayer > first_layer[s.weight])
                return fail("weight '" + w.name +
                            "' loads after its first transform (C1)");
        }
    }
    return true;
}

std::string
OverlapPlan::summary(const graph::Graph &g) const
{
    std::ostringstream os;
    os << "plan[" << g.name() << "]: preload "
       << formatBytes(preloadBytes(g)) << ", streamed "
       << formatBytes(streamedBytes(g)) << " ("
       << formatDouble(100.0 * overlapFraction(g), 1) << "% overlap)";
    return os.str();
}

std::string
OverlapPlan::serialize() const
{
    std::ostringstream os;
    os << "chunk " << chunk_bytes_ << "\n";
    os << "layers " << by_layer_.size() << "\n";
    for (const auto &s : schedules_) {
        os << "w " << s.weight << " " << s.preloadChunks << " "
           << s.earliestLoadLayer << "\n";
    }
    for (const auto &layer : by_layer_) {
        for (const auto &a : layer)
            os << "x " << a.weight << " " << a.layer << " " << a.chunks
               << "\n";
    }
    return os.str();
}

std::optional<std::vector<std::int64_t>>
PlanMemo::lookup(std::uint64_t fingerprint)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(fingerprint);
    if (it == entries_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.hits;
    it->second.lastUse = ++clock_;
    return it->second.values;
}

bool
PlanMemo::store(std::uint64_t fingerprint,
                std::vector<std::int64_t> values, std::int64_t objective)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(fingerprint);
    if (it != entries_.end()) {
        // Keep the better incumbent; refresh recency either way.
        it->second.lastUse = ++clock_;
        if (objective < it->second.objective) {
            it->second.values = std::move(values);
            it->second.objective = objective;
            ++stats_.stores;
            return true;
        }
        return false;
    }
    evictIfNeeded();
    entries_[fingerprint] = {std::move(values), objective, ++clock_};
    ++stats_.stores;
    return true;
}

void
PlanMemo::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    stats_ = {};
    clock_ = 0;
    solves_.clear();
    solve_clock_ = 0;
}

bool
PlanMemo::storeSolve(solver::SolveRecord record)
{
    if (record.result.stopReason == solver::StopReason::TimeLimit)
        return false;
    const std::uint64_t shape = record.model.shapeFingerprint();
    std::lock_guard<std::mutex> lock(mu_);
    if (solves_.size() >= kSolveRecords) {
        // Least recently used, fingerprint tie-break, as for the
        // incumbents: the victim never depends on slot order.
        auto victim = solves_.begin();
        for (auto it = solves_.begin(); it != solves_.end(); ++it) {
            if (it->lastUse < victim->lastUse ||
                (it->lastUse == victim->lastUse &&
                 it->shape < victim->shape))
                victim = it;
        }
        solves_.erase(victim);
    }
    solves_.push_back({shape, ++solve_clock_, std::move(record)});
    return true;
}

std::vector<solver::SolveRecord>
PlanMemo::solveRecords() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<solver::SolveRecord> out;
    out.reserve(solves_.size());
    for (const auto &slot : solves_)
        out.push_back(slot.record);
    return out;
}

std::optional<solver::SolveResult>
PlanMemo::findSolve(const solver::CpModel &model,
                    const std::vector<std::int64_t> &hint,
                    const solver::SolverParams &params)
{
    const std::uint64_t shape = model.shapeFingerprint();
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &slot : solves_) {
        if (slot.shape != shape ||
            !solver::replaysRecord(slot.record, model, hint, params))
            continue;
        slot.lastUse = ++solve_clock_;
        solver::SolveResult r = slot.record.result;
        r.wallSeconds = 0.0;
        return r;
    }
    return std::nullopt;
}

void
PlanMemo::evictIfNeeded()
{
    if (entries_.size() < capacity_)
        return;
    // Evict the least recently used entry (linear scan: eviction is
    // rare and the map is small).
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        // Tie-break on the fingerprint so the victim never depends on
        // hash-table iteration order.
        if (it->second.lastUse < victim->second.lastUse ||
            (it->second.lastUse == victim->second.lastUse &&
             it->first < victim->first))
            victim = it;
    }
    entries_.erase(victim);
    ++stats_.evictions;
}

PlanMemo &
PlanMemo::global()
{
    static PlanMemo memo;
    return memo;
}

namespace {

/** Magic prefix of the memo file ("FMPM"). */
constexpr std::uint32_t kMemoMagic = 0x464D504D;

template <typename T>
void
putPod(std::ostream &os, T value)
{
    // memcpy through a char buffer instead of reinterpret_cast: the
    // same bytes, but type-safe by construction (no aliasing cast to
    // audit at every call site).
    static_assert(std::is_trivially_copyable_v<T>);
    char buf[sizeof(T)];
    std::memcpy(buf, &value, sizeof buf);
    os.write(buf, sizeof buf);
}

template <typename T>
bool
getPod(std::istream &is, T &value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    char buf[sizeof(T)];
    if (!is.read(buf, sizeof buf))
        return false;
    std::memcpy(&value, buf, sizeof buf);
    return is.good();
}

/**
 * FNV-1a over the serialized payload (everything after magic+version).
 * The memo file lives across process lifetimes on flash, where a
 * single flipped bit in an entry body would otherwise load silently
 * and poison every warm-started plan; the checksum turns any
 * corruption into a clean cold start.
 */
class Fnv1a
{
  public:
    void
    add(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001B3ull;
        }
    }

    template <typename T>
    void
    addPod(const T &value)
    {
        add(&value, sizeof(value));
    }

    std::uint64_t digest() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

} // namespace

bool
PlanMemo::loadFromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;

    std::uint32_t magic = 0, version = 0;
    std::uint64_t count = 0, clock = 0;
    if (!getPod(in, magic) || magic != kMemoMagic ||
        !getPod(in, version) || version != kFileVersion ||
        !getPod(in, clock) || !getPod(in, count))
        return false;

    // Parse into a scratch map first so a truncated file cannot leave
    // the memo half-loaded, re-deriving the payload checksum as we go.
    Fnv1a sum;
    sum.addPod(clock);
    sum.addPod(count);
    std::unordered_map<std::uint64_t, Entry> loaded;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t fp = 0, last_use = 0, nvalues = 0;
        std::int64_t objective = 0;
        if (!getPod(in, fp) || !getPod(in, objective) ||
            !getPod(in, last_use) || !getPod(in, nvalues))
            return false;
        // Sanity bound: one OPG window has at most a few thousand
        // variables; reject absurd counts from corrupt files.
        if (nvalues > (1u << 22))
            return false;
        sum.addPod(fp);
        sum.addPod(objective);
        sum.addPod(last_use);
        sum.addPod(nvalues);
        Entry e;
        e.objective = objective;
        e.lastUse = last_use;
        e.values.resize(nvalues);
        for (auto &v : e.values) {
            if (!getPod(in, v))
                return false;
            sum.addPod(v);
        }
        loaded.emplace(fp, std::move(e));
    }

    // Trailing checksum: catches bit-flips the structural checks
    // above cannot (corrupt values, swapped entries, a stale clock).
    std::uint64_t stored_sum = 0;
    if (!getPod(in, stored_sum) || stored_sum != sum.digest())
        return false;

    std::lock_guard<std::mutex> lock(mu_);
    entries_ = std::move(loaded);
    clock_ = clock;
    // Respect the capacity bound of *this* memo, evicting LRU-first.
    while (entries_.size() > capacity_) {
        auto victim = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second.lastUse < victim->second.lastUse ||
                (it->second.lastUse == victim->second.lastUse &&
                 it->first < victim->first))
                victim = it;
        }
        entries_.erase(victim);
    }
    return true;
}

bool
PlanMemo::saveToFile(const std::string &path) const
{
    // Write-then-rename so a crash mid-save never corrupts the file a
    // later launch will load.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        std::lock_guard<std::mutex> lock(mu_);
        Fnv1a sum;
        putPod(out, kMemoMagic);
        putPod(out, kFileVersion);
        putPod(out, clock_);
        sum.addPod(clock_);
        const auto count = static_cast<std::uint64_t>(entries_.size());
        putPod(out, count);
        sum.addPod(count);
        // Serialize in ascending-fingerprint order so the file bytes
        // are a pure function of the memo contents — hash-table
        // iteration order (which depends on insertion history) must
        // never reach the disk format.
        std::vector<std::uint64_t> fps;
        fps.reserve(entries_.size());
        for (const auto &kv : entries_)
            fps.push_back(kv.first);
        std::sort(fps.begin(), fps.end());
        for (const auto fp : fps) {
            const Entry &e = entries_.at(fp);
            const auto nvalues =
                static_cast<std::uint64_t>(e.values.size());
            putPod(out, fp);
            putPod(out, e.objective);
            putPod(out, e.lastUse);
            putPod(out, nvalues);
            sum.addPod(fp);
            sum.addPod(e.objective);
            sum.addPod(e.lastUse);
            sum.addPod(nvalues);
            for (const auto v : e.values) {
                putPod(out, v);
                sum.addPod(v);
            }
        }
        putPod(out, sum.digest());
        if (!out.good())
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

OverlapPlan
OverlapPlan::deserialize(const std::string &text)
{
    OverlapPlan plan;
    plan.schedules_.clear();
    plan.by_layer_.clear();

    std::istringstream is(text);
    std::string tag;
    std::size_t layers = 0;
    std::vector<ChunkAssignment> pending;
    while (is >> tag) {
        if (tag == "chunk") {
            is >> plan.chunk_bytes_;
        } else if (tag == "layers") {
            is >> layers;
        } else if (tag == "w") {
            WeightSchedule s;
            is >> s.weight >> s.preloadChunks >> s.earliestLoadLayer;
            plan.schedules_.push_back(s);
        } else if (tag == "x") {
            ChunkAssignment a;
            is >> a.weight >> a.layer >> a.chunks;
            pending.push_back(a);
        } else {
            FM_FATAL("overlap plan: unknown record '", tag, "'");
        }
        FM_ASSERT(!is.fail(), "overlap plan: malformed record");
    }
    graph::NodeId max_layer = 0;
    for (const auto &a : pending)
        max_layer = std::max(max_layer, a.layer);
    plan.by_layer_.resize(
        std::max<std::size_t>(layers, max_layer + 1));
    for (const auto &a : pending)
        plan.by_layer_[a.layer].push_back(a);
    return plan;
}

} // namespace flashmem::core
