#include "core/window_flow.hh"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/logging.hh"

namespace flashmem::core {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

/** Residual graph: edge e's reverse is e ^ 1. */
struct Network
{
    struct Edge
    {
        int to = 0;
        std::int64_t cap = 0;
        std::int64_t cost = 0;
    };

    explicit Network(std::size_t nodes) : adj(nodes) {}

    /** Adds u -> v and its reverse; @return the forward edge's index. */
    int
    add(int u, int v, std::int64_t cap, std::int64_t cost)
    {
        const int e = static_cast<int>(edges.size());
        edges.push_back({v, cap, cost});
        adj[u].push_back(e);
        edges.push_back({u, 0, -cost});
        adj[v].push_back(e + 1);
        return e;
    }

    /** Flow carried by forward edge @p e. */
    std::int64_t flow(int e) const { return edges[e ^ 1].cap; }

    /**
     * Successive shortest paths from @p s to @p t until no augmenting
     * path remains. @return the cost of the flow sent.
     */
    std::int64_t
    minCostMaxFlow(int s, int t)
    {
        const std::size_t n = adj.size();
        std::vector<std::int64_t> dist(n);
        std::vector<int> via(n);
        std::vector<char> queued(n);
        std::deque<int> queue;
        std::int64_t total = 0;
        for (;;) {
            std::fill(dist.begin(), dist.end(), kInf);
            dist[s] = 0;
            queue.push_back(s);
            while (!queue.empty()) {
                const int u = queue.front();
                queue.pop_front();
                queued[u] = 0;
                const std::int64_t du = dist[u];
                for (int e : adj[u]) {
                    const Edge &edge = edges[e];
                    const int v = edge.to;
                    if (edge.cap <= 0 || du + edge.cost >= dist[v])
                        continue;
                    dist[v] = du + edge.cost;
                    via[v] = e;
                    if (!queued[v]) {
                        queued[v] = 1;
                        queue.push_back(v);
                    }
                }
            }
            if (dist[t] == kInf)
                return total;
            std::int64_t push = kInf;
            for (int v = t; v != s; v = edges[via[v] ^ 1].to)
                push = std::min(push, edges[via[v]].cap);
            for (int v = t; v != s; v = edges[via[v] ^ 1].to) {
                edges[via[v]].cap -= push;
                edges[via[v] ^ 1].cap += push;
            }
            total += push * dist[t];
        }
    }

    std::vector<Edge> edges;
    std::vector<std::vector<int>> adj;
};

} // namespace

WindowFlow
solveWindowFlow(const WindowFlowProblem &p)
{
    const std::size_t weights = p.supply.size();
    FM_ASSERT(p.preloadCost.size() == weights && p.arcs.size() == weights,
              "window flow: per-weight vectors disagree in size");
    // Nodes: source, weights, preload, layers, sink.
    const int source = 0;
    const int preload = static_cast<int>(weights) + 1;
    const int first_layer = preload + 1;
    const int sink = first_layer + static_cast<int>(p.layerCap.size());
    Network net(static_cast<std::size_t>(sink) + 1);

    std::int64_t supply = 0;
    std::vector<int> preload_edge(weights);
    std::vector<std::vector<int>> arc_edge(weights);
    for (std::size_t k = 0; k < weights; ++k) {
        const int node = static_cast<int>(k) + 1;
        net.add(source, node, p.supply[k], 0);
        supply += p.supply[k];
        preload_edge[k] = net.add(node, preload, p.supply[k],
                                  p.preloadCost[k]);
        for (const auto &a : p.arcs[k]) {
            FM_ASSERT(a.layer < p.layerCap.size(),
                      "window flow: arc to unknown layer ", a.layer);
            arc_edge[k].push_back(
                net.add(node, first_layer + static_cast<int>(a.layer),
                        std::max<std::int64_t>(a.cap, 0), a.cost));
        }
    }
    for (std::size_t l = 0; l < p.layerCap.size(); ++l)
        net.add(first_layer + static_cast<int>(l), sink,
                std::max<std::int64_t>(p.layerCap[l], 0), 0);
    net.add(preload, sink, supply, 0);

    WindowFlow out;
    out.cost = net.minCostMaxFlow(source, sink);
    out.preload.resize(weights);
    out.flow.resize(weights);
    for (std::size_t k = 0; k < weights; ++k) {
        out.preload[k] = net.flow(preload_edge[k]);
        for (int e : arc_edge[k])
            out.flow[k].push_back(net.flow(e));
    }
    return out;
}

std::int64_t
streamChunkCost(std::int64_t distance, std::int64_t chunks,
                std::int64_t mu_coef)
{
    return kFlowCostScale * (distance - 1) +
           kFlowCostScale * mu_coef * distance / chunks;
}

std::int64_t
windowFlowBound(std::int64_t cost, std::int64_t mu_coef,
                std::int64_t consumer_sum)
{
    return (cost + kFlowCostScale - 1) / kFlowCostScale -
           mu_coef * consumer_sum;
}

std::int64_t
flowCost(const WindowFlowProblem &p, const WindowFlow &placement)
{
    std::int64_t cost = 0;
    for (std::size_t k = 0; k < p.supply.size(); ++k) {
        cost += placement.preload[k] * p.preloadCost[k];
        for (std::size_t j = 0; j < p.arcs[k].size(); ++j)
            cost += placement.flow[k][j] * p.arcs[k][j].cost;
    }
    return cost;
}

} // namespace flashmem::core
