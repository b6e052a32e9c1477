/**
 * @file
 * Table 4 reproduction: LC-OPG offline time breakdown for GPT-Neo
 * S/1.3B/2.7B and the synthetic ViT-8B, Llama2-13B, Llama2-70B. The
 * paper times CP-SAT (process nodes / build CP model / solve, under a
 * 150-second limit); this planner solves each window's C2-relaxed core
 * as an exact min-cost flow and ships the greedy warm start where C2
 * binds, so the table reports planner time (process nodes / stage /
 * solve) next to the paper's columns. Absolute times differ from the
 * authors' 128-thread workstation; the checks are (a) every plan lands
 * OPTIMAL or FEASIBLE, and (b) cost grows with model scale.
 *
 * A merge-time re-balancing section checks that the second merge pass
 * tops up budget-truncated windows without growing the preload set.
 *
 * Ledger (ctest label `ledger`): every deterministic figure — each
 * Table-4 model's plan status, flow-settled windows and greedy
 * windows — is asserted exactly (bench/ledger.hh).
 */

#include "bench/harness.hh"

#include <iterator>

#include "bench/ledger.hh"
#include "common/logging.hh"
#include "core/lc_opg.hh"
#include "profiler/capacity.hh"

int
main()
{
    using namespace flashmem;
    using namespace flashmem::bench;

    bool ok = true;
    Ledger ledger;

    // ------------------------------------------------------------------
    // Table 4 — LC-OPG offline breakdown per model. Each window round
    // runs one min-cost flow; rounds where C2 binds ship the greedy
    // warm start. The last columns count flow-settled and greedy
    // windows.
    // ------------------------------------------------------------------
    printHeading(std::cout, "Table 4: LC-OPG planner runtime");

    // Published columns (seconds / status) and the ledger values,
    // aligned with table4ModelSet() order.
    struct Published
    {
        double p_process, p_build, p_solve;
        const char *p_status;
        const char *status;
        int flowWindows, greedyWindows;
    };
    const Published published[] = {
        {0.010, 0.260, 45.00, "OPTIMAL", "FEASIBLE", 19, 0},    // GPTN-S
        {0.020, 1.170, 121.00, "FEASIBLE", "FEASIBLE", 35, 0},  // GPTN-1.3B
        {0.050, 1.980, 121.00, "FEASIBLE", "FEASIBLE", 46, 0},  // GPTN-2.7B
        {0.001, 4.110, 121.40, "FEASIBLE", "FEASIBLE", 48, 0},  // ViT-8B
        {0.007, 3.566, 124.80, "FEASIBLE", "FEASIBLE", 51, 0},  // Llama2-13B
        {0.023, 14.456, 136.38, "FEASIBLE", "FEASIBLE", 21, 80}, // Llama2-70B
    };
    const auto &t4models = table4ModelSet();
    FM_ASSERT(t4models.size() == std::size(published),
              "published[] out of sync with table4ModelSet()");

    gpusim::KernelModel km(gpusim::DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    Table t({"Model", "Process (s)", "(paper)", "Stage (s)",
             "Build (paper)", "Solve (s)", "(paper)", "Status", "(paper)",
             "Flow windows", "Greedy windows"});
    double total_70b = 0.0, total_s = 0.0;
    for (std::size_t i = 0; i < t4models.size(); ++i) {
        const auto &e = t4models[i];
        const auto &pub = published[i];
        core::LcOpgPlanner planner(*e.graph, cap, km);
        core::PlanStats stats;
        auto plan = planner.plan(&stats);
        ok &= plan.validate(*e.graph, false);

        const char *status =
            solver::solveStatusName(stats.overallStatus);
        ledger.eq(e.name + " plan status", status, pub.status);
        ledger.eq(e.name + " flow windows", stats.flowWindows,
                  pub.flowWindows);
        ledger.eq(e.name + " greedy windows", stats.greedyWindows,
                  pub.greedyWindows);
        t.addRow({e.name, formatDouble(stats.processNodesSeconds, 3),
                  formatDouble(pub.p_process, 3),
                  formatDouble(stats.stageSeconds, 3),
                  formatDouble(pub.p_build, 3),
                  formatDouble(stats.solveSeconds, 3),
                  formatDouble(pub.p_solve, 2), status, pub.p_status,
                  std::to_string(stats.flowWindows) + "/" +
                      std::to_string(stats.windows),
                  std::to_string(stats.greedyWindows)});

        double total = stats.processNodesSeconds + stats.stageSeconds +
                       stats.solveSeconds;
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
    // Merge-time re-balancing. Under the latency-priority
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

    std::cout << "\n";
    ok &= ledger.report(std::cout);
    return ok ? 0 : 1;
}
