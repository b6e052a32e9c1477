/**
 * @file
 * Table 4 reproduction: LC-OPG offline time breakdown (process nodes /
 * build CP model / solve) for GPT-Neo S/1.3B/2.7B and the synthetic
 * ViT-8B, Llama2-13B, Llama2-70B, each under the paper's 150-second
 * limit. Absolute times differ from the authors' 128-thread
 * workstation; the checks are (a) every plan lands OPTIMAL or FEASIBLE,
 * and (b) cost grows with model scale.
 *
 * Additionally proves out the solver rewrite: the trail-based engine is
 * compared head-to-head against the seed DFS ("baseline") on identical
 * CP models — exhaustively solved instances must agree on optimum and
 * status, and fixed-decision-budget instances measure wall time per
 * decision. The PASS bar is a >= 5x aggregate reduction in solver wall
 * time (equivalently decisions/s). A plan-memo section checks that
 * planning an unchanged model again replays its kept window solves
 * into a byte-identical plan.
 *
 * A final search section measures symmetry breaking's conflict
 * reduction on interchangeable windows and records which
 * budget-truncated window instances the solver proves optimal under
 * the Table-4 planner's restart setup.
 *
 * Ledger (ctest label `ledger`): every deterministic figure — instance
 * statuses and objectives, the Table-4 plan statuses, the symmetry
 * conflict counts and ratio, the budget instances' statuses and
 * objectives, and the count proven optimal — is asserted exactly
 * (bench/ledger.hh). The >= 5x speedup is the only wall-time check.
 */

#include "bench/harness.hh"

#include <iterator>

#include "bench/ledger.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/lc_opg.hh"
#include "graph/builder.hh"
#include "profiler/capacity.hh"
#include "solver/solver.hh"
#include "solver/symmetry.hh"

namespace {

using namespace flashmem;
using solver::CpModel;
using solver::CpSolver;
using solver::LinearTerm;
using solver::SearchEngine;
using solver::SolveResult;
using solver::SolverParams;
using solver::VarId;

/** One CP instance plus its greedy warm-start hint. */
struct Instance
{
    std::string name;
    CpModel model;
    std::vector<std::int64_t> hint;
    std::uint64_t decisionBudget = 0; ///< 0 = run to exhaustion
};

/**
 * OPG-window-shaped instance: per-weight coverage equalities
 * (y_w + sum_l x_{w,l} = T(w)), per-layer capacity rows, z_w
 * implication chains, and the lambda/mu objective — the same structure
 * LcOpgPlanner::planWindow() emits, at a parameterizable scale.
 */
Instance
opgWindowInstance(const std::string &name, int weights, int layers,
                  int tw, int cap, unsigned seed,
                  std::uint64_t decision_budget)
{
    Rng rng(seed);
    Instance inst;
    inst.name = name;
    inst.decisionBudget = decision_budget;
    CpModel &m = inst.model;

    std::vector<std::vector<VarId>> x(weights);
    std::vector<VarId> y(weights), z(weights);
    std::vector<int> consumer(weights);
    std::vector<std::int64_t> residual(layers, cap);
    for (int w = 0; w < weights; ++w)
        consumer[w] = 1 + static_cast<int>(rng.uniformInt(1, layers - 1));

    for (int w = 0; w < weights; ++w) {
        std::vector<LinearTerm> row;
        y[w] = m.newIntVar(0, tw);
        row.push_back({y[w], 1});
        for (int l = 0; l < consumer[w]; ++l) {
            x[w].push_back(m.newIntVar(0, tw));
            row.push_back({x[w].back(), 1});
        }
        m.addEquality(row, tw);
        z[w] = m.newIntVar(0, consumer[w]);
        for (int l = 0; l < consumer[w]; ++l)
            m.addImplicationGeLe(x[w][l], 1, z[w], l);
    }
    for (int l = 0; l < layers; ++l) {
        std::vector<LinearTerm> col;
        for (int w = 0; w < weights; ++w) {
            if (l < consumer[w])
                col.push_back({x[w][l], 1});
        }
        if (!col.empty())
            m.addLessOrEqual(col, cap);
    }
    std::vector<LinearTerm> obj;
    for (int w = 0; w < weights; ++w) {
        obj.push_back({y[w], 90}); // lambda-weighted preload cost
        for (int l = 0; l < consumer[w]; ++l)
            obj.push_back({x[w][l], consumer[w] - l - 1});
        obj.push_back({z[w], -10}); // mu-weighted distance reward
    }
    m.minimize(obj);

    // Greedy latest-feasible hint, mirroring LcOpgPlanner's warm start.
    std::vector<std::int64_t> hint(m.varCount(), 0);
    for (int w = 0; w < weights; ++w) {
        std::int64_t rem = tw;
        std::int64_t zval = consumer[w];
        for (int l = consumer[w] - 1; l >= 0 && rem > 0; --l) {
            std::int64_t take =
                std::min<std::int64_t>(rem, residual[l]);
            if (take <= 0)
                continue;
            residual[l] -= take;
            hint[x[w][l]] = take;
            rem -= take;
            zval = l;
        }
        hint[y[w]] = rem;
        hint[z[w]] = zval;
    }
    inst.hint = std::move(hint);
    return inst;
}

struct EngineRun
{
    SolveResult base;
    SolveResult trail;
};

EngineRun
runBothEngines(const Instance &inst, double time_limit)
{
    EngineRun out;
    for (auto engine : {SearchEngine::Baseline, SearchEngine::Trail}) {
        SolverParams p;
        p.engine = engine;
        p.timeLimitSeconds = time_limit;
        p.maxDecisions = inst.decisionBudget;
        auto r = CpSolver(p).solve(inst.model, &inst.hint);
        (engine == SearchEngine::Baseline ? out.base : out.trail) =
            std::move(r);
    }
    return out;
}

double
decisionsPerSecond(const SolveResult &r)
{
    return static_cast<double>(r.decisions) / (r.wallSeconds + 1e-12);
}

/**
 * Fully interchangeable OPG window: every weight has the same total
 * size and the same consumer set (all layers), so every per-weight
 * [y_w, x_w*, z_w] block swaps with every other — the worst case for
 * plain search and the best case for lex symmetry breaking.
 */
Instance
symWindowInstance(const std::string &name, int weights, int layers,
                  int tw, int cap,
                  std::vector<solver::VarBlock> *blocks_out)
{
    Instance inst;
    inst.name = name;
    CpModel &m = inst.model;

    std::vector<std::vector<VarId>> x(weights);
    std::vector<VarId> y(weights), z(weights);
    for (int w = 0; w < weights; ++w) {
        std::vector<LinearTerm> row;
        y[w] = m.newIntVar(0, tw);
        row.push_back({y[w], 1});
        for (int l = 0; l < layers; ++l) {
            x[w].push_back(m.newIntVar(0, tw));
            row.push_back({x[w].back(), 1});
        }
        m.addEquality(row, tw);
        z[w] = m.newIntVar(0, layers);
        for (int l = 0; l < layers; ++l)
            m.addImplicationGeLe(x[w][l], 1, z[w], l);
    }
    for (int l = 0; l < layers; ++l) {
        std::vector<LinearTerm> col;
        for (int w = 0; w < weights; ++w)
            col.push_back({x[w][l], 1});
        m.addLessOrEqual(col, cap);
    }
    std::vector<LinearTerm> obj;
    for (int w = 0; w < weights; ++w) {
        obj.push_back({y[w], 90});
        for (int l = 0; l < layers; ++l)
            obj.push_back({x[w][l], layers - l - 1});
        obj.push_back({z[w], -10});
    }
    m.minimize(obj);

    if (blocks_out) {
        for (int w = 0; w < weights; ++w) {
            solver::VarBlock b;
            b.vars.push_back(y[w]);
            for (auto v : x[w])
                b.vars.push_back(v);
            b.vars.push_back(z[w]);
            blocks_out->push_back(std::move(b));
        }
    }
    return inst;
}

/**
 * Window search study.
 *
 * (a) Symmetry: interchangeable windows solved to exhaustion with and
 *     without lex rows must agree on the optimum, and the rows must
 *     cut conflicts (the aggregate plain/broken conflict ratio is the
 *     machine-independent speedup figure).
 * (b) Budget: OPG-window instances solved under a fixed decision
 *     budget with the Table-4 planner's restart setup.
 *
 * Conflict counts, statuses, objectives and the count proven optimal
 * are deterministic and go to @p ledger. Returns the shape checks.
 */
bool
reportSearchStudy(bench::Ledger &ledger)
{
    bool ok = true;

    // --------------------------------------------------------------
    // (a) Symmetry breaking on interchangeable windows.
    // --------------------------------------------------------------
    printHeading(std::cout,
                 "Symmetry breaking: interchangeable windows, "
                 "run-to-exhaustion conflicts");

    struct SymCase
    {
        const char *name;
        int weights, layers, tw, cap;
        std::int64_t plainConflicts, brokenConflicts; ///< ledger
    };
    const SymCase sym_cases[] = {
        {"sym-w5-l3", 5, 3, 2, 3, 18231, 251},
        {"sym-w6-l3", 6, 3, 2, 4, 40133, 985},
        {"sym-w6-l4", 6, 4, 2, 4, 188012, 4387},
        {"sym-w7-l3", 7, 3, 2, 4, 1594870, 1533},
    };

    Table st({"Instance", "Objective", "Lex rows", "Plain conflicts",
              "Broken conflicts", "Ratio"});
    std::uint64_t conf_plain = 0, conf_broken = 0;
    for (const auto &c : sym_cases) {
        SolverParams sp;
        sp.timeLimitSeconds = 60.0;

        auto plain = symWindowInstance(c.name, c.weights, c.layers,
                                       c.tw, c.cap, nullptr);
        auto r_plain = CpSolver(sp).solve(plain.model, nullptr);

        std::vector<solver::VarBlock> blocks;
        auto broken = symWindowInstance(c.name, c.weights, c.layers,
                                        c.tw, c.cap, &blocks);
        auto groups =
            solver::groupInterchangeableBlocks(broken.model, blocks);
        std::size_t rows =
            solver::addSymmetryBreaking(broken.model, blocks, groups);
        auto r_broken = CpSolver(sp).solve(broken.model, nullptr);

        // Lex rows are sound: same optimum, proven both ways.
        ok &= r_plain.status == solver::SolveStatus::Optimal;
        ok &= r_broken.status == solver::SolveStatus::Optimal;
        ok &= r_plain.objective == r_broken.objective;
        ok &= rows > 0;
        ok &= r_broken.backtracks < r_plain.backtracks;
        conf_plain += r_plain.backtracks;
        conf_broken += r_broken.backtracks;
        const std::string name = c.name;
        ledger.eq(name + " plain conflicts",
                  static_cast<std::int64_t>(r_plain.backtracks),
                  c.plainConflicts);
        ledger.eq(name + " broken conflicts",
                  static_cast<std::int64_t>(r_broken.backtracks),
                  c.brokenConflicts);

        double ratio = static_cast<double>(r_plain.backtracks) /
                       static_cast<double>(
                           r_broken.backtracks ? r_broken.backtracks
                                               : 1);
        st.addRow({c.name, std::to_string(r_broken.objective),
                   std::to_string(rows),
                   std::to_string(r_plain.backtracks),
                   std::to_string(r_broken.backtracks),
                   formatDouble(ratio, 1) + "x"});
    }
    st.print(std::cout);

    double conflict_ratio =
        static_cast<double>(conf_plain) /
        static_cast<double>(conf_broken ? conf_broken : 1);
    ok &= conflict_ratio > 1.0;
    std::cout << "\nAggregate conflict ratio (plain / broken): "
              << formatDouble(conflict_ratio, 1)
              << "x (deterministic; ledger)\n";
    ledger.near("symmetry conflict ratio", conflict_ratio,
                257.30100614868644);

    // --------------------------------------------------------------
    // (b) Budget-truncated windows under a fixed decision budget.
    // --------------------------------------------------------------
    printHeading(std::cout,
                 "Budget-truncated windows: restarting search at a "
                 "fixed decision budget");

    struct BudgetCase
    {
        const char *name;
        int weights, layers, tw, cap;
        unsigned seed;
        std::uint64_t budget;
        const char *status; ///< ledger
        std::int64_t objective; ///< ledger
    };
    const BudgetCase budget_cases[] = {
        {"budget-w8-l5", 8, 5, 2, 5, 1, 100000, "FEASIBLE", -209},
        {"budget-w9-l5", 9, 5, 2, 6, 7, 200000, "FEASIBLE", -136},
        {"budget-w8-l4", 8, 4, 2, 6, 11, 50000, "FEASIBLE", -86},
        {"budget-w8-l4-wide", 8, 4, 2, 6, 11, 200000, "OPTIMAL", -86},
        {"budget-w10-l6", 10, 6, 3, 8, 21, 100000, "FEASIBLE", -306},
    };

    Table bt({"Instance", "Budget", "Status", "Objective", "Decisions"});
    int optimal_single = 0;
    for (const auto &c : budget_cases) {
        auto inst = opgWindowInstance(c.name, c.weights, c.layers,
                                      c.tw, c.cap, c.seed, c.budget);
        SolverParams sp;
        sp.timeLimitSeconds = 60.0;
        sp.maxDecisions = c.budget;
        // The Table-4 planner's budget-truncated window setup.
        sp.restartConflictBase = 1024;

        auto r = CpSolver(sp).solve(inst.model, &inst.hint);
        ok &= r.feasible();
        optimal_single += r.status == solver::SolveStatus::Optimal;
        const std::string name = c.name;
        ledger.eq(name + " status", solver::solveStatusName(r.status),
                  c.status);
        ledger.eq(name + " objective", r.objective, c.objective);

        bt.addRow({c.name, std::to_string(c.budget),
                   solver::solveStatusName(r.status),
                   std::to_string(r.objective),
                   std::to_string(r.decisions)});
    }
    bt.print(std::cout);

    std::cout << "\nWindows proven optimal: " << optimal_single << "/"
              << std::size(budget_cases) << " (deterministic; ledger)\n";
    ledger.eq("windows proven optimal", optimal_single, 1);
    return ok;
}

} // namespace

int
main()
{
    using namespace flashmem;
    using namespace flashmem::bench;

    bool ok = true;
    Ledger ledger;

    // ------------------------------------------------------------------
    // Part 1: trail engine vs seed DFS on identical CP models.
    // Exhaustive instances prove identical optima/statuses; budgeted
    // instances measure wall time for the same number of decisions.
    // ------------------------------------------------------------------
    printHeading(std::cout,
                 "Solver rewrite: trail engine vs seed DFS (same models)");

    struct CompareCase
    {
        const char *name;
        int weights, layers, tw, cap;
        unsigned seed;
        std::uint64_t budget; ///< 0 = run to exhaustion
        const char *status; ///< ledger (trail engine)
        std::int64_t objective; ///< ledger (trail engine)
    };
    const CompareCase compare_cases[] = {
        // Run-to-OPTIMAL instances (small enough for the seed DFS).
        {"opt-w8-l5", 8, 5, 2, 5, 1, 0, "OPTIMAL", -209},
        {"opt-w9-l5", 9, 5, 2, 6, 7, 0, "OPTIMAL", -136},
        {"opt-w8-l4", 8, 4, 2, 6, 11, 0, "OPTIMAL", -86},
        // Fixed-decision-budget instances at LC-OPG window scale.
        {"win-w24-l8", 24, 8, 4, 14, 3, 400000, "FEASIBLE", -756},
        {"win-w32-l8", 32, 8, 4, 18, 5, 400000, "FEASIBLE", -618},
        {"win-w40-l10", 40, 10, 6, 26, 4, 400000, "FEASIBLE", -1742},
        {"win-w56-l12", 56, 12, 6, 30, 9, 400000, "FEASIBLE", -3020},
        {"win-w72-l14", 72, 14, 6, 36, 13, 400000, "FEASIBLE", -4480},
    };

    Table cmp({"Instance", "Status", "Objective", "Seed (s)",
               "Trail (s)", "Seed dec/s", "Trail dec/s", "Speedup"});
    double wall_base = 0.0, wall_trail = 0.0;
    std::uint64_t dec_base = 0, dec_trail = 0;
    for (const auto &c : compare_cases) {
        auto inst = opgWindowInstance(c.name, c.weights, c.layers, c.tw,
                                      c.cap, c.seed, c.budget);
        auto r = runBothEngines(inst, 60.0);
        const std::string name = c.name;
        ledger.eq(name + " status",
                  solver::solveStatusName(r.trail.status), c.status);
        ledger.eq(name + " objective", r.trail.objective, c.objective);
        ok &= r.base.status == r.trail.status;
        ok &= r.base.feasible() && r.trail.feasible();
        if (inst.decisionBudget == 0) {
            // Run to exhaustion: optima are defined and must match.
            ok &= r.base.status == solver::SolveStatus::Optimal;
            ok &= r.base.objective == r.trail.objective;
        } else {
            // Budget-truncated anytime results: each engine seeds its
            // incumbent from the hint, so neither may end worse than
            // the hint's objective (the invariant both guarantee).
            std::int64_t hint_obj = 0;
            for (const auto &t : inst.model.objective())
                hint_obj += t.coef * inst.hint[t.var];
            ok &= r.base.objective <= hint_obj;
            ok &= r.trail.objective <= hint_obj;
        }
        wall_base += r.base.wallSeconds;
        wall_trail += r.trail.wallSeconds;
        dec_base += r.base.decisions;
        dec_trail += r.trail.decisions;
        std::string obj_cell = std::to_string(r.trail.objective);
        if (r.base.objective != r.trail.objective)
            obj_cell += " (seed " + std::to_string(r.base.objective) +
                        ")";
        cmp.addRow({inst.name, solver::solveStatusName(r.trail.status),
                    obj_cell,
                    formatDouble(r.base.wallSeconds, 3),
                    formatDouble(r.trail.wallSeconds, 3),
                    formatDouble(decisionsPerSecond(r.base), 0),
                    formatDouble(decisionsPerSecond(r.trail), 0),
                    formatDouble(r.base.wallSeconds /
                                     (r.trail.wallSeconds + 1e-12),
                                 1) +
                        "x"});
    }
    cmp.print(std::cout);

    double wall_speedup = wall_base / (wall_trail + 1e-12);
    double dps_base = static_cast<double>(dec_base) / (wall_base + 1e-12);
    double dps_trail =
        static_cast<double>(dec_trail) / (wall_trail + 1e-12);
    double dps_ratio = dps_trail / (dps_base + 1e-12);
    std::cout << "\nAggregate: seed " << formatDouble(wall_base, 2)
              << " s @ " << formatDouble(dps_base, 0)
              << " dec/s; trail " << formatDouble(wall_trail, 2)
              << " s @ " << formatDouble(dps_trail, 0) << " dec/s -> "
              << formatDouble(wall_speedup, 1) << "x wall, "
              << formatDouble(dps_ratio, 1) << "x dec/s\n";
    bool speedup_ok = wall_speedup >= 5.0 || dps_ratio >= 5.0;
    ok &= speedup_ok;
    std::cout << ">=5x solver speedup (identical statuses everywhere, "
                 "identical optima on exhausted instances): "
              << (speedup_ok ? "PASS" : "FAIL") << "\n";

    // ------------------------------------------------------------------
    // Part 2: Table 4 — LC-OPG offline breakdown per model.
    // ------------------------------------------------------------------
    printHeading(std::cout,
                 "Table 4: LC-OPG solver runtime (150 s budget)");
    core::PlanMemo::global().clear(); // cold Table-4 numbers

    // Published columns (seconds / status) and the ledger status,
    // aligned with table4ModelSet() order.
    struct Published
    {
        double p_process, p_build, p_solve;
        const char *p_status;
        const char *status;
    };
    const Published published[] = {
        {0.010, 0.260, 45.00, "OPTIMAL", "FEASIBLE"},     // GPTN-S
        {0.020, 1.170, 121.00, "FEASIBLE", "FEASIBLE"},   // GPTN-1.3B
        {0.050, 1.980, 121.00, "FEASIBLE", "FEASIBLE"},   // GPTN-2.7B
        {0.001, 4.110, 121.40, "FEASIBLE", "FEASIBLE"},   // ViT-8B
        {0.007, 3.566, 124.80, "FEASIBLE", "FEASIBLE"},   // Llama2-13B
        {0.023, 14.456, 136.38, "FEASIBLE", "FEASIBLE"},  // Llama2-70B
    };
    const auto &t4models = table4ModelSet();
    FM_ASSERT(t4models.size() == std::size(published),
              "published[] out of sync with table4ModelSet()");

    gpusim::KernelModel km(gpusim::DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    Table t({"Model", "Process (s)", "(paper)", "Build (s)", "(paper)",
             "Solve (s)", "(paper)", "Status", "(paper)"});
    double total_70b = 0.0, total_s = 0.0;
    for (std::size_t i = 0; i < t4models.size(); ++i) {
        const auto &e = t4models[i];
        const auto &pub = published[i];
        core::OpgParams params;
        // Scale per-window budget so the whole-model budget mirrors
        // the paper's 150 s limit across ~60 windows.
        params.solverDecisionsPerWindow = 20000;
        // Budget-truncated windows: Luby restarts + solution phase
        // saving keep incumbent quality under the same budget.
        params.restartConflictBase = 1024;
        core::LcOpgPlanner planner(*e.graph, cap, km, params);
        core::PlanStats stats;
        auto plan = planner.plan(&stats);
        ok &= plan.validate(*e.graph, false);

        const char *status =
            solver::solveStatusName(stats.overallStatus);
        ledger.eq(e.name + " plan status", status, pub.status);
        t.addRow({e.name, formatDouble(stats.processNodesSeconds, 3),
                  formatDouble(pub.p_process, 3),
                  formatDouble(stats.buildModelSeconds, 3),
                  formatDouble(pub.p_build, 3),
                  formatDouble(stats.solveSeconds, 2),
                  formatDouble(pub.p_solve, 2), status, pub.p_status});

        double total = stats.processNodesSeconds +
                       stats.buildModelSeconds + stats.solveSeconds;
        if (e.name == "GPTN-S")
            total_s = total;
        if (e.name == "Llama2-70B")
            total_70b = total;
        ok &= stats.overallStatus == solver::SolveStatus::Optimal ||
              stats.overallStatus == solver::SolveStatus::Feasible;
    }
    t.print(std::cout);

    // Scale check: the 70B plan costs far more than the small model,
    // mirroring the paper's nonlinear growth.
    ok &= total_70b > 2.0 * total_s;
    std::cout << "\nShape check (all plans feasible, cost grows with "
                 "scale): "
              << (ok ? "PASS" : "FAIL") << "\n";

    // ------------------------------------------------------------------
    // Part 3: plan memo — planning an unchanged model again replays
    // its window rounds from the kept solve records instead of
    // searching, and the replay is exact: the plan is byte-identical,
    // on all-OPTIMAL windows and on budget-truncated ones alike.
    // ------------------------------------------------------------------
    printHeading(std::cout, "Plan memo: repeated planning calls");
    core::PlanMemo::global().clear();

    graph::GraphBuilder tiny_b("memo_tiny", Precision::FP16);
    {
        auto x = tiny_b.input({64, 256});
        for (int i = 0; i < 3; ++i) {
            std::string p = "blk" + std::to_string(i);
            auto n = tiny_b.layerNorm(x, p + ".ln");
            auto h = tiny_b.matmul(n, 1024, p + ".fc1");
            h = tiny_b.activation(h, graph::OpKind::GeLU, p + ".act");
            h = tiny_b.matmul(h, 256, p + ".fc2");
            x = tiny_b.add(x, h, p + ".res");
        }
    }
    auto tiny_g = tiny_b.build();
    core::OpgParams tiny_params;
    tiny_params.chunkBytes = kib(256);
    // Generous budget: this window exhausts in ~226k decisions.
    tiny_params.solverDecisionsPerWindow = 2000000;
    // Plans g twice on the global memo; true when the two plans are
    // byte-identical.
    auto planTwice = [&](const graph::Graph &g,
                         const core::OpgParams &params,
                         core::PlanStats &cold, core::PlanStats &warm) {
        core::LcOpgPlanner first(g, cap, km, params);
        const std::string a = first.plan(&cold).serialize();
        core::LcOpgPlanner second(g, cap, km, params);
        return a == second.plan(&warm).serialize();
    };
    core::PlanStats tiny_cold, tiny_warm;
    const bool tiny_same = planTwice(tiny_g, tiny_params, tiny_cold,
                                     tiny_warm);
    const auto &gpts = *t4models.front().graph;
    core::PlanStats cold_stats, warm_stats;
    const bool gpts_same = planTwice(gpts, {}, cold_stats, warm_stats);
    bool memo_ok = tiny_same && tiny_warm.reusedRounds > 0 &&
                   gpts_same && warm_stats.reusedRounds > 0;
    ok &= memo_ok;
    std::cout << "tiny model: identical plan "
              << (tiny_same ? "yes" : "NO") << ", "
              << tiny_warm.reusedRounds << " reused rounds\n";
    std::cout << "GPTN-S cold: "
              << formatDouble(cold_stats.solveSeconds, 3) << " s, "
              << cold_stats.solverDecisions << " decisions; warm: "
              << formatDouble(warm_stats.solveSeconds, 3)
              << " s, identical plan " << (gpts_same ? "yes" : "NO")
              << " (" << warm_stats.reusedRounds
              << " reused rounds across " << warm_stats.windows
              << " windows)\n";
    std::cout << "Memo replay (reused rounds > 0, byte-identical "
                 "repeat plans): "
              << (memo_ok ? "PASS" : "FAIL") << "\n";

    // ------------------------------------------------------------------
    // Part 4: merge-time re-balancing. Under the latency-priority
    // configuration (the Figure-6 study: 1 GiB in-flight budget,
    // lambda 0.5) some budget-truncated windows preload chunks even
    // though earlier windows reserved capacity greedily and did not
    // use it; the second merge pass moves those chunks back into the
    // stream. The check: at least one Table-4 model gets topped up,
    // and topping up never increases the preload set.
    // ------------------------------------------------------------------
    printHeading(std::cout,
                 "Merge-time re-balancing: truncated windows topped up");
    Table rt({"Model", "Rebalanced chunks", "Weights", "Preload (off)",
              "Preload (on)"});
    bool reb_any = false;
    for (std::size_t i = 0; i < 2; ++i) { // GPTN-S, GPTN-1.3B
        const auto &e = t4models[i];
        core::OpgParams params;
        params.solverDecisionsPerWindow = 20000;
        params.restartConflictBase = 1024;
        params.mPeak = mib(1024);
        params.lambda = 0.5;

        params.mergeRebalance = false;
        core::PlanStats stats_off;
        core::LcOpgPlanner off(*e.graph, cap, km, params);
        auto plan_off = off.plan(&stats_off);

        params.mergeRebalance = true;
        core::PlanStats stats_on;
        core::LcOpgPlanner on(*e.graph, cap, km, params);
        auto plan_on = on.plan(&stats_on);

        Bytes pre_off = plan_off.preloadBytes(*e.graph);
        Bytes pre_on = plan_on.preloadBytes(*e.graph);
        ok &= plan_on.validate(*e.graph, false);
        ok &= pre_on <= pre_off;
        reb_any |= stats_on.rebalancedChunks > 0;
        rt.addRow({e.name, std::to_string(stats_on.rebalancedChunks),
                   std::to_string(stats_on.rebalancedWeights),
                   formatBytes(pre_off), formatBytes(pre_on)});
    }
    rt.print(std::cout);
    ok &= reb_any;
    std::cout << "\nRe-balancing pass (>=1 model topped up, preload "
                 "never grows): "
              << (reb_any ? "PASS" : "FAIL") << "\n";

    // ------------------------------------------------------------------
    // Part 5: window search — symmetry breaking + budget instances.
    // ------------------------------------------------------------------
    ok &= reportSearchStudy(ledger);

    std::cout << "\n";
    ok &= ledger.report(std::cout);
    return ok ? 0 : 1;
}
