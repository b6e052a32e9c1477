#include "core/lc_opg.hh"

#include <algorithm>
#include <chrono>
#include <future>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "solver/model.hh"
#include "solver/symmetry.hh"

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

LcOpgPlanner::RoundModel
LcOpgPlanner::buildWindowModel(const WindowInput &in, double relax,
                               const std::vector<bool> &forced) const
{
    // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
    auto build_t0 = std::chrono::steady_clock::now();
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params_.mPeak / params_.chunkBytes);

    const auto &weights = in.weights;
    const auto &cands = in.cands;
    const auto &greedy = in.greedy;
    const graph::NodeId end = in.end;
    const graph::NodeId min_cand = in.minCand;

    RoundModel rm;
    solver::CpModel &m = rm.model;
    std::vector<solver::VarId> &y_vars = rm.y_vars;
    std::vector<solver::VarId> &z_vars = rm.z_vars;
    std::vector<std::vector<solver::VarId>> &x_vars = rm.x_vars;
    std::vector<std::int64_t> &hint = rm.hint;
    y_vars.resize(weights.size());
    z_vars.assign(weights.size(), -1);
    x_vars.resize(weights.size());

    std::vector<solver::LinearTerm> objective;
    for (std::size_t k = 0; k < weights.size(); ++k) {
        const auto &w = g_.weight(weights[k]);
        std::int64_t t_w = chunk_count_[weights[k]];
        std::int64_t y_lo = forced[k] ? t_w : 0;
        y_vars[k] = m.newIntVar(y_lo, t_w, w.name + ".preload");
        hint.push_back(forced[k] ? t_w : greedy.preload[k]);
        // lambda-weighted preload cost.
        objective.push_back(
            {y_vars[k], static_cast<std::int64_t>(
                            params_.lambda * kObjScale)});

        std::vector<solver::LinearTerm> coverage{{y_vars[k], 1}};
        for (auto l : cands[k]) {
            std::int64_t cap = std::min<std::int64_t>(
                {t_w,
                 static_cast<std::int64_t>(
                     static_cast<double>(in.residual[l]) *
                     relax),
                 mpeak_chunks});
            auto x = m.newIntVar(0, std::max<std::int64_t>(cap,
                                                           0));
            x_vars[k].push_back(x);
            coverage.push_back({x, 1});
            // Tie-break: transform close to the consumer.
            objective.push_back({x, w.consumer - l - 1});
            std::int64_t hint_x = 0;
            if (!forced[k]) {
                for (auto &[gl, gc] : greedy.assignments[k]) {
                    if (gl == l)
                        hint_x = gc;
                }
            }
            hint.push_back(hint_x);
        }
        // C0: completeness of allocation.
        m.addEquality(coverage, t_w);

        // z_w and C1 implications (streamed weights only).
        if (!cands[k].empty()) {
            graph::NodeId z_lo = std::max<graph::NodeId>(
                0, w.consumer - params_.maxLoadDistance);
            z_vars[k] =
                m.newIntVar(z_lo, w.consumer, w.name + ".z");
            // mu-weighted loading distance i_w - z_w.
            objective.push_back(
                {z_vars[k], -static_cast<std::int64_t>(
                                params_.mu * kObjScale)});
            for (std::size_t j = 0; j < cands[k].size(); ++j) {
                m.addImplicationGeLe(x_vars[k][j], 1, z_vars[k],
                                     cands[k][j]);
            }
            graph::NodeId hint_z = w.consumer;
            if (!forced[k] && !greedy.assignments[k].empty()) {
                for (auto &[gl, gc] : greedy.assignments[k])
                    hint_z = std::min(hint_z, gl);
            }
            hint.push_back(hint_z);
        }
    }

    // C3: per-layer load capacity.
    for (graph::NodeId l = min_cand; l < end && min_cand < end;
         ++l) {
        std::vector<solver::LinearTerm> col;
        for (std::size_t k = 0; k < weights.size(); ++k) {
            for (std::size_t j = 0; j < cands[k].size(); ++j) {
                if (cands[k][j] == l)
                    col.push_back({x_vars[k][j], 1});
            }
        }
        if (!col.empty()) {
            m.addLessOrEqual(
                col, static_cast<std::int64_t>(
                         static_cast<double>(in.residual[l]) *
                         relax));
        }
    }

    // C2: in-flight transformed-but-unconsumed memory.
    for (graph::NodeId p = min_cand; p < end && min_cand < end;
         ++p) {
        std::vector<solver::LinearTerm> inflight;
        for (std::size_t k = 0; k < weights.size(); ++k) {
            if (g_.weight(weights[k]).consumer <= p)
                continue;
            for (std::size_t j = 0; j < cands[k].size(); ++j) {
                if (cands[k][j] <= p)
                    inflight.push_back({x_vars[k][j], 1});
            }
        }
        if (!inflight.empty()) {
            m.addLessOrEqual(inflight, std::max<std::int64_t>(
                                           mpeak_chunks -
                                               in.inflight[p],
                                           0));
        }
    }

    m.minimize(objective);

    // Symmetry breaking: group verified-interchangeable weight blocks
    // (y, x..., z) and chain them with leader-function orderings.
    if (params_.symmetryBreaking) {
        std::vector<solver::VarBlock> blocks(weights.size());
        for (std::size_t k = 0; k < weights.size(); ++k) {
            auto &b = blocks[k].vars;
            b.reserve(2 + x_vars[k].size());
            b.push_back(y_vars[k]);
            b.insert(b.end(), x_vars[k].begin(), x_vars[k].end());
            if (z_vars[k] >= 0)
                b.push_back(z_vars[k]);
        }
        const auto groups = solver::groupInterchangeableBlocks(m, blocks);
        if (!groups.empty()) {
            rm.lexRows = solver::addSymmetryBreaking(m, blocks, groups);
            solver::canonicalizeHint(m, blocks, groups, hint);
        }
    }

    rm.buildSeconds = secondsSince(build_t0);
    return rm;
}

bool
LcOpgPlanner::interpretRound(WindowSolveState &st,
                             const solver::SolveResult &r) const
{
    const WindowInput &in = *st.in;
    WindowResult &result = st.out.result;

    result.buildSeconds += st.rm.buildSeconds;
    result.lexRows += st.rm.lexRows;
    if (st.rm.reused)
        ++result.reusedRounds;
    result.solveSeconds += r.wallSeconds;
    result.decisions += r.decisions;
    result.propagations += r.propagations;
    result.conflicts += r.backtracks;
    result.restarts += r.restarts;
    result.status = r.status;
    if (result.stopReason != solver::StopReason::TimeLimit)
        result.stopReason = r.stopReason;

    if (!r.feasible()) {
        // Tier 1: soft-threshold relaxation of C_l.
        if (st.round < params_.maxFallbackRounds) {
            st.relax *= params_.softThresholdGrowth;
            ++result.softRelaxations;
            ++st.round;
            return false;
        }
        applyGreedy(in, st.out);
        return true;
    }

    // Extract candidate solution.
    const auto &weights = in.weights;
    auto &extracted_preload = st.out.preload;
    auto &extracted_assign = st.out.assign;
    auto &extracted_z = st.out.z;
    extracted_preload.assign(weights.size(), 0);
    extracted_assign.assign(weights.size(), {});
    Bytes window_bytes = 0, preload_bytes = 0;
    for (std::size_t k = 0; k < weights.size(); ++k) {
        extracted_preload[k] = r.value(st.rm.y_vars[k]);
        window_bytes += g_.weight(weights[k]).bytes();
        preload_bytes += slicer_.bytesForChunks(g_.weight(weights[k]),
                                                extracted_preload[k]);
        for (std::size_t j = 0; j < in.cands[k].size(); ++j) {
            auto v = r.value(st.rm.x_vars[k][j]);
            if (v > 0)
                extracted_assign[k].push_back({in.cands[k][j], v});
        }
        if (st.rm.z_vars[k] >= 0 && !extracted_assign[k].empty())
            extracted_z[k] = static_cast<graph::NodeId>(
                r.value(st.rm.z_vars[k]));
    }

    // Tier 2: if capacity pressure forced most of the window into W,
    // pin the heaviest offender and re-solve so the solver
    // redistributes the rest.
    double preload_frac =
        window_bytes ? static_cast<double>(preload_bytes) / window_bytes
                     : 0.0;
    if (preload_frac > 0.8 && st.round < params_.maxFallbackRounds) {
        std::size_t worst = 0;
        std::int64_t worst_chunks = -1;
        for (std::size_t k = 0; k < weights.size(); ++k) {
            if (!st.forced[k] && extracted_preload[k] > worst_chunks) {
                worst_chunks = extracted_preload[k];
                worst = k;
            }
        }
        if (worst_chunks > 0) {
            st.forced[worst] = true;
            ++result.forcedPreloads;
            ++st.round;
            return false;
        }
    }
    return true;
}

void
LcOpgPlanner::applyGreedy(const WindowInput &in, WindowOutput &out) const
{
    out.result.usedGreedy = true;
    out.preload = in.greedy.preload;
    out.assign = in.greedy.assignments;
    if (out.z.size() != in.weights.size())
        out.z.assign(in.weights.size(), graph::kInvalidNode);
    for (std::size_t k = 0; k < in.weights.size(); ++k) {
        graph::NodeId z = g_.weight(in.weights[k]).consumer;
        for (auto &[l, c] : out.assign[k])
            z = std::min(z, l);
        out.z[k] =
            out.assign[k].empty() ? graph::kInvalidNode : z;
    }
    out.result.status = solver::SolveStatus::Feasible;
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

PlanMemo &
LcOpgPlanner::memoRef() const
{
    return params_.memo ? *params_.memo : PlanMemo::global();
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

    // Phase 2 — solve: one solve task per (window, round) runs on a
    // shared pool; the main thread builds each round's model, drives
    // each window's fallback-round state machine and consumes results
    // in submission (window) order, so downstream phases never observe
    // completion order.
    const int threads =
        params_.parallel.threads > 0
            ? params_.parallel.threads
            : ThreadPool::defaultThreadCount();
    local.threads = threads;
    // FMLINT(allow:no-wall-clock) reported PlanStats timings only; plan content never reads the clock
    auto solve_t0 = std::chrono::steady_clock::now();
    std::vector<WindowOutput> outputs;
    outputs.reserve(inputs.size());
    {
        ThreadPool pool(threads);
        std::vector<WindowSolveState> states(inputs.size());
        solver::SolverParams sp;
        sp.maxDecisions = params_.solverDecisionsPerWindow;
        sp.engine = params_.solverEngine;
        sp.restartConflictBase = params_.restartConflictBase;
        // A round whose solve a kept record replays (the budget moved
        // only rows the recorded search never tightened) takes the
        // recorded result instead of searching; see
        // solver::replaysRecord. Lookups and stores both run here on
        // the main thread, in a thread-count-independent order.
        auto submitRound = [&](WindowSolveState &st) {
            st.rm = buildWindowModel(*st.in, st.relax, st.forced);
            if (auto hit =
                    memoRef().findSolve(st.rm.model, st.rm.hint, sp)) {
                std::promise<solver::SolveResult> ready;
                ready.set_value(std::move(*hit));
                st.solve = ready.get_future();
                st.rm.reused = true;
                return;
            }
            st.solve = pool.submit([&st, sp]() {
                return solver::CpSolver(sp).solve(st.rm.model,
                                                  &st.rm.hint);
            });
        };
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            WindowSolveState &st = states[i];
            st.in = &inputs[i];
            const auto &in = inputs[i];
            if (in.weights.empty()) {
                st.done = true;
                continue;
            }
            st.forced.assign(in.weights.size(), false);
            st.out.z.assign(in.weights.size(), graph::kInvalidNode);
            // Tier 3 guard: skip the solver outright for degenerate
            // over-wide windows (solver cost grows superlinearly).
            std::size_t var_estimate = 0;
            for (const auto &c : in.cands)
                var_estimate += c.size() + 2;
            if (var_estimate > 2000) {
                applyGreedy(in, st.out);
                st.done = true;
                continue;
            }
            submitRound(st);
        }
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            WindowSolveState &st = states[i];
            while (!st.done) {
                solver::SolveResult r = st.solve.get();
                st.done = interpretRound(st, r);
                // The round model is spent: keep it as a record.
                if (!st.rm.reused)
                    memoRef().storeSolve({std::move(st.rm.model),
                                          std::move(st.rm.hint), sp,
                                          std::move(r)});
                if (!st.done)
                    submitRound(st);
            }
            outputs.push_back(std::move(st.out));
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
    for (const auto &out : outputs) {
        const auto &wr = out.result;
        PlanStats::WindowSolveSummary s;
        s.window = local.windows;
        s.status = wr.status;
        s.usedGreedy = wr.usedGreedy;
        s.decisions = wr.decisions;
        s.propagations = wr.propagations;
        s.conflicts = wr.conflicts;
        s.restarts = wr.restarts;
        s.stopReason = wr.stopReason;
        s.reusedRounds = wr.reusedRounds;
        local.windowSummaries.push_back(std::move(s));
        ++local.windows;
        local.symmetryRows += wr.lexRows;
        local.buildModelSeconds += wr.buildSeconds;
        local.solveCpuSeconds += wr.solveSeconds;
        local.solverDecisions += wr.decisions;
        local.solverPropagations += wr.propagations;
        local.solverConflicts += wr.conflicts;
        local.solverRestarts += wr.restarts;
        local.softRelaxations += wr.softRelaxations;
        local.forcedPreloads += wr.forcedPreloads;
        local.reusedRounds += wr.reusedRounds;
        if (wr.stopReason == solver::StopReason::TimeLimit)
            ++local.timeLimitedWindows;
        if (wr.usedGreedy) {
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
