#include "core/lc_opg.hh"

#include <algorithm>
#include <chrono>
#include <future>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace flashmem::core {

namespace {

double
// FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Objective scaling: lambda/mu mapped onto integer coefficients. */
constexpr std::int64_t kObjScale = 100;

/** Integer objective coefficient of lambda or mu. */
std::int64_t
objCoef(double weight)
{
    return static_cast<std::int64_t>(weight * kObjScale);
}

/**
 * Ledger-checked chunk placement step shared by the greedy warm start,
 * the merge-time clamp, and the re-balancing pass: take up to @p want
 * chunks of a weight consumed at @p consumer at layer @p l, bounded by
 * the layer's residual capacity and the in-flight headroom over
 * [l, consumer), committing the take to both ledgers.
 * @return chunks actually taken (0 when the layer cannot help).
 */
std::int64_t
takeAtLayer(graph::NodeId l, graph::NodeId consumer, std::int64_t want,
            std::int64_t mpeak_chunks,
            std::vector<std::int64_t> &residual,
            std::vector<std::int64_t> &inflight)
{
    std::int64_t take = std::min(want, residual[l]);
    for (graph::NodeId p = l; p < consumer && take > 0; ++p)
        take = std::min(take, mpeak_chunks - inflight[p]);
    if (take <= 0)
        return 0;
    residual[l] -= take;
    for (graph::NodeId p = l; p < consumer; ++p)
        inflight[p] += take;
    return take;
}

} // namespace

LcOpgPlanner::LcOpgPlanner(const graph::Graph &g,
                           const profiler::CapacityProvider &capacity,
                           const gpusim::KernelModel &kernel_model,
                           OpgParams params)
    : g_(g), capacity_(capacity), kernel_model_(kernel_model),
      params_(params), slicer_(params.chunkBytes)
{
    FM_ASSERT(params_.windowLayers > 0 && params_.maxLoadDistance > 0,
              "bad OPG window parameters");
}

void
LcOpgPlanner::processNodes()
{
    const auto layers = static_cast<graph::NodeId>(g_.layerCount());
    specs_.reserve(layers);
    capacity_chunks_.assign(layers, 0);
    for (graph::NodeId l = 0; l < layers; ++l) {
        auto spec = gpusim::kernelSpecFor(g_, l, true);
        spec.pipelined = true;
        capacity_chunks_[l] =
            capacity_.capacityChunks(spec, params_.chunkBytes);
        specs_.push_back(std::move(spec));
    }
    chunk_count_.resize(g_.weightCount());
    for (std::size_t w = 0; w < g_.weightCount(); ++w)
        chunk_count_[w] = slicer_.chunkCount(g_.weight(
            static_cast<graph::WeightId>(w)));

    // Explicit preload list: pin weights (consumer order) into W until
    // the requested fraction of bytes is covered.
    pinned_preload_.assign(g_.weightCount(), false);
    if (params_.minPreloadFraction > 0.0) {
        auto target = static_cast<Bytes>(
            params_.minPreloadFraction *
            static_cast<double>(g_.totalWeightBytes()));
        std::vector<graph::WeightId> order;
        for (const auto &w : g_.weights())
            order.push_back(w.id);
        std::sort(order.begin(), order.end(),
                  [&](graph::WeightId a, graph::WeightId b) {
                      return g_.weight(a).consumer <
                             g_.weight(b).consumer;
                  });
        Bytes covered = 0;
        for (auto wid : order) {
            if (covered >= target)
                break;
            pinned_preload_[wid] = true;
            covered += g_.weight(wid).bytes();
        }
    }
}

LcOpgPlanner::GreedyOut
LcOpgPlanner::greedyAssign(
    const std::vector<graph::WeightId> &weights,
    const std::vector<std::int64_t> &residual_capacity,
    const std::vector<std::int64_t> &inflight_used) const
{
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);
    auto residual = residual_capacity;
    auto inflight = inflight_used;

    GreedyOut out;
    out.assignments.resize(weights.size());
    out.preload.assign(weights.size(), 0);

    for (std::size_t k = 0; k < weights.size(); ++k) {
        const auto &w = g_.weight(weights[k]);
        std::int64_t remaining = chunk_count_[weights[k]];
        graph::NodeId lo = std::max<graph::NodeId>(
            0, w.consumer - params_.maxLoadDistance);
        // Latest-feasible placement: walk back from the consumer so
        // chunks arrive as close to their use as capacity allows.
        for (graph::NodeId l = w.consumer - 1; l >= lo && remaining > 0;
             --l) {
            std::int64_t take = takeAtLayer(l, w.consumer, remaining,
                                            mpeak_chunks, residual,
                                            inflight);
            if (take <= 0)
                continue;
            out.assignments[k].push_back({l, take});
            remaining -= take;
        }
        out.preload[k] = remaining;
    }
    return out;
}

LcOpgPlanner::WindowInput
LcOpgPlanner::stageWindow(graph::NodeId start, graph::NodeId end,
                          std::vector<std::int64_t> &staging_residual,
                          std::vector<std::int64_t> &staging_inflight)
    const
{
    WindowInput in;
    in.start = start;
    in.end = end;

    // Weights consumed inside this window, in consumer order (pinned
    // preload-list weights are handled by plan() directly).
    for (const auto &w : g_.weights()) {
        if (w.consumer >= start && w.consumer < end &&
            !pinned_preload_[w.id])
            in.weights.push_back(w.id);
    }
    if (in.weights.empty())
        return in;
    std::sort(in.weights.begin(), in.weights.end(),
              [&](graph::WeightId a, graph::WeightId b) {
                  return g_.weight(a).consumer < g_.weight(b).consumer;
              });

    // Candidate transform layers per weight (earlier windows allowed
    // through whatever staged residual capacity they left behind).
    in.cands.resize(in.weights.size());
    in.minCand = end;
    for (std::size_t k = 0; k < in.weights.size(); ++k) {
        const auto &w = g_.weight(in.weights[k]);
        graph::NodeId lo = std::max<graph::NodeId>(
            0, w.consumer - params_.maxLoadDistance);
        for (graph::NodeId l = lo; l < w.consumer; ++l) {
            if (staging_residual[l] > 0) {
                in.cands[k].push_back(l);
                in.minCand = std::min(in.minCand, l);
            }
        }
    }

    in.greedy = greedyAssign(in.weights, staging_residual,
                             staging_inflight);
    in.residual = staging_residual;
    in.inflight = staging_inflight;

    // Reserve the greedy's capacity in the staging ledgers: windows
    // staged after this one see the expected usage of this window, so
    // their solves can start before this window's solver finishes.
    const auto &w_list = in.weights;
    for (std::size_t k = 0; k < w_list.size(); ++k) {
        const auto consumer = g_.weight(w_list[k]).consumer;
        for (const auto &[l, c] : in.greedy.assignments[k]) {
            staging_residual[l] -= c;
            for (graph::NodeId p = l; p < consumer; ++p)
                staging_inflight[p] += c;
        }
    }
    return in;
}

WindowFlowProblem
LcOpgPlanner::flowProblem(const WindowInput &in,
                          const std::vector<bool> &forced) const
{
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);
    const auto lambda_coef = objCoef(params_.lambda);
    const auto mu_coef = objCoef(params_.mu);

    WindowFlowProblem p;
    p.layerCap.assign(in.residual.begin() + in.minCand,
                      in.residual.begin() + in.end);
    p.supply.resize(in.weights.size());
    p.preloadCost.assign(in.weights.size(),
                         kFlowCostScale * lambda_coef);
    p.arcs.resize(in.weights.size());
    for (std::size_t k = 0; k < in.weights.size(); ++k) {
        const auto consumer = g_.weight(in.weights[k]).consumer;
        const std::int64_t t_w = chunk_count_[in.weights[k]];
        p.supply[k] = t_w;
        for (auto l : in.cands[k]) {
            const std::size_t layer = l - in.minCand;
            const std::int64_t cap =
                forced[k] ? 0
                          : std::min({t_w, p.layerCap[layer],
                                      mpeak_chunks});
            p.arcs[k].push_back(
                {layer, cap, streamChunkCost(consumer - l, t_w, mu_coef)});
        }
    }
    return p;
}

std::int64_t
LcOpgPlanner::windowObjective(
    const WindowInput &in, const std::vector<std::int64_t> &preload,
    const std::vector<std::vector<std::pair<graph::NodeId,
                                            std::int64_t>>> &assign)
    const
{
    const auto lambda_coef = objCoef(params_.lambda);
    const auto mu_coef = objCoef(params_.mu);
    std::int64_t obj = 0;
    for (std::size_t k = 0; k < in.weights.size(); ++k) {
        const auto consumer = g_.weight(in.weights[k]).consumer;
        obj += lambda_coef * preload[k];
        graph::NodeId z = consumer;
        for (const auto &[l, c] : assign[k]) {
            obj += c * (consumer - l - 1);
            z = std::min(z, l);
        }
        if (!in.cands[k].empty())
            obj -= mu_coef * z;
    }
    return obj;
}

bool
LcOpgPlanner::flowRound(const WindowInput &in, int round,
                        const std::vector<bool> &forced,
                        WindowOutput &out) const
{
    WindowResult &result = out.result;
    const auto mu_coef = objCoef(params_.mu);
    const auto p = flowProblem(in, forced);
    const auto flow = solveWindowFlow(p);

    std::vector<std::vector<std::pair<graph::NodeId, std::int64_t>>>
        assign(in.weights.size());
    // z_w: the earliest layer used (candidates ascend).
    std::vector<graph::NodeId> z(in.weights.size(), graph::kInvalidNode);
    // C2 over the staged in-flight snapshot: a chunk transformed at l
    // for a weight consumed at i_w is in flight over [l, i_w).
    std::vector<std::int64_t> inflight(p.layerCap.size() + 1, 0);
    std::int64_t z_sum = 0;
    for (std::size_t k = 0; k < in.weights.size(); ++k) {
        const auto consumer = g_.weight(in.weights[k]).consumer;
        for (std::size_t j = 0; j < in.cands[k].size(); ++j) {
            const std::int64_t c = flow.flow[k][j];
            if (c <= 0)
                continue;
            const graph::NodeId l = in.cands[k][j];
            assign[k].push_back({l, c});
            if (z[k] == graph::kInvalidNode)
                z[k] = l;
            inflight[l - in.minCand] += c;
            inflight[consumer - in.minCand] -= c;
        }
        if (!in.cands[k].empty())
            z_sum += consumer;
    }
    if (round == 0) {
        // Round 0's greedy warm start is a feasible flow.
        WindowFlow greedy{0, in.greedy.preload, {}};
        greedy.flow.resize(in.weights.size());
        for (std::size_t k = 0; k < in.weights.size(); ++k) {
            greedy.flow[k].assign(in.cands[k].size(), 0);
            for (const auto &[l, c] : in.greedy.assignments[k]) {
                const auto j = std::lower_bound(in.cands[k].begin(),
                                                in.cands[k].end(), l) -
                               in.cands[k].begin();
                greedy.flow[k][static_cast<std::size_t>(j)] = c;
            }
        }
        result.flowCost = flow.cost;
        result.hintFlowCost = flowCost(p, greedy);
    }
    result.flowBound = windowFlowBound(flow.cost, mu_coef, z_sum);

    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);
    std::int64_t running = 0;
    for (graph::NodeId l = in.minCand; l < in.end; ++l) {
        running += inflight[l - in.minCand];
        if (running >
            std::max<std::int64_t>(mpeak_chunks - in.inflight[l], 0))
            return false;
    }

    out.preload = flow.preload;
    out.assign = std::move(assign);
    out.z = std::move(z);
    result.flow = true;
    result.usedGreedy = false;
    result.objective = windowObjective(in, out.preload, out.assign);
    result.status = result.objective == result.flowBound
                        ? solver::SolveStatus::Optimal
                        : solver::SolveStatus::Feasible;
    return true;
}

bool
LcOpgPlanner::pinHeaviestPreload(const WindowInput &in, int round,
                                 std::vector<bool> &forced,
                                 WindowOutput &out) const
{
    const auto &weights = in.weights;
    Bytes window_bytes = 0, preload_bytes = 0;
    for (std::size_t k = 0; k < weights.size(); ++k) {
        window_bytes += g_.weight(weights[k]).bytes();
        preload_bytes += slicer_.bytesForChunks(g_.weight(weights[k]),
                                                out.preload[k]);
    }

    // Tier 2: if capacity pressure forced most of the window into W,
    // pin the heaviest offender and re-plan so the next round
    // redistributes the rest.
    double preload_frac =
        window_bytes ? static_cast<double>(preload_bytes) / window_bytes
                     : 0.0;
    if (preload_frac <= 0.8 || round >= params_.maxFallbackRounds)
        return false;
    std::size_t worst = 0;
    std::int64_t worst_chunks = -1;
    for (std::size_t k = 0; k < weights.size(); ++k) {
        if (!forced[k] && out.preload[k] > worst_chunks) {
            worst_chunks = out.preload[k];
            worst = k;
        }
    }
    if (worst_chunks <= 0)
        return false;
    forced[worst] = true;
    ++out.result.forcedPreloads;
    return true;
}

void
LcOpgPlanner::applyGreedy(const WindowInput &in,
                          const std::vector<bool> &forced,
                          WindowOutput &out) const
{
    out.result.usedGreedy = true;
    out.preload = in.greedy.preload;
    out.assign = in.greedy.assignments;
    out.z.assign(in.weights.size(), graph::kInvalidNode);
    for (std::size_t k = 0; k < in.weights.size(); ++k) {
        if (forced[k]) {
            out.preload[k] = chunk_count_[in.weights[k]];
            out.assign[k].clear();
        }
        graph::NodeId z = g_.weight(in.weights[k]).consumer;
        for (auto &[l, c] : out.assign[k])
            z = std::min(z, l);
        out.z[k] =
            out.assign[k].empty() ? graph::kInvalidNode : z;
    }
    out.result.status = solver::SolveStatus::Feasible;
    out.result.flow = false;
    out.result.objective =
        windowObjective(in, out.preload, out.assign);
}

LcOpgPlanner::WindowOutput
LcOpgPlanner::solveWindow(const WindowInput &in) const
{
    // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
    auto t0 = std::chrono::steady_clock::now();
    WindowOutput out;
    std::vector<bool> forced(in.weights.size(), false);
    for (int round = 0;; ++round) {
        if (!flowRound(in, round, forced, out))
            applyGreedy(in, forced, out);
        if (!pinHeaviestPreload(in, round, forced, out))
            break;
    }
    out.result.solveSeconds = secondsSince(t0);
    return out;
}

void
LcOpgPlanner::commitWindow(const WindowInput &in, const WindowOutput &out,
                           OverlapPlan &plan)
{
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);

    // Commit into the plan and the authoritative ledgers, clamping to
    // what is really left: a window may have solved against a staged
    // snapshot that an earlier window's solver overshot (relative to
    // its greedy reservation), and the overflow moves to preload.
    for (std::size_t k = 0; k < in.weights.size(); ++k) {
        auto wid = in.weights[k];
        const auto &w = g_.weight(wid);
        std::int64_t preload = out.preload[k];
        graph::NodeId first_kept = graph::kInvalidNode;
        std::vector<std::pair<graph::NodeId, std::int64_t>> kept;
        kept.reserve(out.assign[k].size());
        for (const auto &[l, c] : out.assign[k]) {
            std::int64_t take =
                takeAtLayer(l, w.consumer, c, mpeak_chunks,
                            residual_capacity_, inflight_used_);
            preload += c - take;
            if (take <= 0)
                continue;
            kept.push_back({l, take});
            if (first_kept == graph::kInvalidNode || l < first_kept)
                first_kept = l;
        }
        plan.setPreloadChunks(wid, preload);
        for (auto &[l, c] : kept)
            plan.addAssignment(wid, l, c);
        if (!kept.empty()) {
            // z_w from the solver when it survives the clamp (C1
            // guarantees z <= first assigned layer); first kept layer
            // otherwise.
            graph::NodeId z = out.z[k];
            if (z == graph::kInvalidNode || z > first_kept)
                z = first_kept;
            plan.setEarliestLoad(wid, z);
        }
    }
}

void
LcOpgPlanner::rebalanceMerge(OverlapPlan &plan, PlanStats &stats)
{
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);

    // Consumer order (id tie-break): deterministic, and the order the
    // windows themselves committed in, so top-ups drain leftover
    // capacity front to back exactly like a third merge phase.
    std::vector<graph::WeightId> order;
    for (const auto &w : g_.weights()) {
        if (!pinned_preload_[w.id] &&
            plan.schedule(w.id).preloadChunks > 0 && w.consumer > 0)
            order.push_back(w.id);
    }
    std::sort(order.begin(), order.end(),
              [&](graph::WeightId a, graph::WeightId b) {
                  auto ca = g_.weight(a).consumer;
                  auto cb = g_.weight(b).consumer;
                  return ca != cb ? ca < cb : a < b;
              });

    for (auto wid : order) {
        const auto &w = g_.weight(wid);
        const auto &s = plan.schedule(wid);
        std::int64_t preload = s.preloadChunks;
        const std::int64_t before = preload;
        graph::NodeId first_added = graph::kInvalidNode;
        graph::NodeId lo = std::max<graph::NodeId>(
            0, w.consumer - params_.maxLoadDistance);
        // Latest-feasible placement, mirroring the greedy warm start.
        for (graph::NodeId l = w.consumer - 1; l >= lo && preload > 0;
             --l) {
            std::int64_t take =
                takeAtLayer(l, w.consumer, preload, mpeak_chunks,
                            residual_capacity_, inflight_used_);
            if (take <= 0)
                continue;
            plan.addAssignment(wid, l, take);
            preload -= take;
            stats.rebalancedChunks += take;
            if (first_added == graph::kInvalidNode || l < first_added)
                first_added = l;
        }
        if (preload == before)
            continue;
        ++stats.rebalancedWeights;
        plan.setPreloadChunks(wid, preload);
        // C1: z_w covers the new (possibly earlier) first transform.
        graph::NodeId z = s.earliestLoadLayer;
        if (z == graph::kInvalidNode || first_added < z)
            z = first_added;
        plan.setEarliestLoad(wid, z);
    }
}

OverlapPlan
LcOpgPlanner::plan(PlanStats *stats)
{
    PlanStats local;
    // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
    auto t0 = std::chrono::steady_clock::now();
    if (!processed_) {
        processNodes();
        processed_ = true;
    }
    // Authoritative ledgers are per-plan state, reset on every call so
    // replan() can reuse the (budget-independent) graph analysis.
    residual_capacity_ = capacity_chunks_;
    inflight_used_.assign(g_.layerCount(), 0);
    local.processNodesSeconds = secondsSince(t0);

    OverlapPlan plan(g_, params_.chunkBytes);
    for (std::size_t w = 0; w < g_.weightCount(); ++w) {
        if (pinned_preload_[w]) {
            plan.setPreloadChunks(static_cast<graph::WeightId>(w),
                                  chunk_count_[w]);
        }
    }
    // Phase 1 — stage: sequential pass computing every window's inputs
    // against the staging ledgers (greedy reservations decouple the
    // windows from each other).
    // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
    auto stage_t0 = std::chrono::steady_clock::now();
    const auto layers = static_cast<graph::NodeId>(g_.layerCount());
    std::vector<WindowInput> inputs;
    {
        auto staging_residual = capacity_chunks_;
        std::vector<std::int64_t> staging_inflight(layers, 0);
        for (graph::NodeId start = 0; start < layers;
             start += params_.windowLayers) {
            graph::NodeId end =
                std::min<graph::NodeId>(start + params_.windowLayers,
                                        layers);
            inputs.push_back(stageWindow(start, end, staging_residual,
                                         staging_inflight));
        }
    }
    local.stageSeconds = secondsSince(stage_t0);

    // Phase 2 — solve: one task per non-empty window on a shared pool,
    // each a pure function of its staged input; results are consumed
    // in submission (window) order, so downstream phases never observe
    // completion order.
    const int threads =
        params_.parallel.threads > 0
            ? params_.parallel.threads
            : ThreadPool::defaultThreadCount();
    local.threads = threads;
    // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
    auto solve_t0 = std::chrono::steady_clock::now();
    std::vector<WindowOutput> outputs(inputs.size());
    {
        ThreadPool pool(threads);
        std::vector<std::future<WindowOutput>> solves(inputs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            if (!inputs[i].weights.empty())
                solves[i] = pool.submit(
                    [this, &in = inputs[i]]() { return solveWindow(in); });
        }
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            if (solves[i].valid())
                outputs[i] = solves[i].get();
        }
    }
    local.solveSeconds = secondsSince(solve_t0);

    // Phase 3 — merge: commit in window order into the plan and the
    // authoritative ledgers.
    // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
    auto merge_t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < inputs.size(); ++i)
        commitWindow(inputs[i], outputs[i], plan);
    // Second merge pass: top up budget-truncated windows from capacity
    // earlier windows reserved greedily but did not use.
    if (params_.mergeRebalance)
        rebalanceMerge(plan, local);
    local.mergeSeconds = secondsSince(merge_t0);

    local.windowSummaries.reserve(outputs.size());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        const auto &wr = outputs[i].result;
        const auto &in = inputs[i];
        PlanStats::WindowSolveSummary s;
        s.window = local.windows;
        s.status = wr.status;
        s.usedGreedy = wr.usedGreedy;
        s.forcedPreloads = wr.forcedPreloads;
        s.flow = wr.flow;
        s.empty = in.weights.empty();
        if (!s.empty)
            s.hintObjective = windowObjective(in, in.greedy.preload,
                                              in.greedy.assignments);
        s.flowBound = wr.flowBound;
        s.objective = wr.objective;
        s.flowCost = wr.flowCost;
        s.hintFlowCost = wr.hintFlowCost;
        local.flowWindows += wr.flow;
        local.hintObjective += s.hintObjective;
        local.flowBound += s.flowBound;
        local.objective += s.objective;
        local.windowSummaries.push_back(std::move(s));
        ++local.windows;
        local.solveCpuSeconds += wr.solveSeconds;
        local.forcedPreloads += wr.forcedPreloads;
        if (in.weights.empty()) {
            ++local.emptyWindows;
        } else if (wr.usedGreedy) {
            ++local.greedyWindows;
        } else if (wr.status == solver::SolveStatus::Optimal) {
            ++local.optimalWindows;
        } else {
            ++local.feasibleWindows;
        }
    }
    local.overallStatus = (local.feasibleWindows + local.greedyWindows)
                              ? solver::SolveStatus::Feasible
                              : solver::SolveStatus::Optimal;

    plan.validate(g_);
    if (stats)
        *stats = local;
    return plan;
}

OverlapPlan
LcOpgPlanner::replan(Bytes mPeak, PlanStats *stats)
{
    FM_ASSERT(mPeak >= params_.chunkBytes,
              "re-plan budget below one chunk (", mPeak, " bytes)");
    params_.mPeak = mPeak;
    return plan(stats);
}

} // namespace flashmem::core
