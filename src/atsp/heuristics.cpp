#include "atsp/heuristics.hpp"

#include <algorithm>

namespace mtg::atsp {

std::optional<Tour> nearest_neighbour(const CostMatrix& costs, int start) {
    const int n = costs.size();
    MTG_EXPECTS(start >= 0 && start < n);
    std::vector<bool> visited(static_cast<std::size_t>(n), false);
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(n));
    int current = start;
    visited[static_cast<std::size_t>(current)] = true;
    order.push_back(current);
    for (int step = 1; step < n; ++step) {
        int best = -1;
        Cost best_cost = kForbidden;
        for (int next = 0; next < n; ++next) {
            if (visited[static_cast<std::size_t>(next)]) continue;
            const Cost c = costs.at(current, next);
            if (c < best_cost) {
                best_cost = c;
                best = next;
            }
        }
        if (best < 0) return std::nullopt;
        visited[static_cast<std::size_t>(best)] = true;
        order.push_back(best);
        current = best;
    }
    if (costs.is_forbidden(current, start)) return std::nullopt;
    return Tour{order, tour_cost(costs, order)};
}

std::optional<Tour> best_nearest_neighbour(const CostMatrix& costs) {
    std::optional<Tour> best;
    for (int start = 0; start < costs.size(); ++start) {
        auto tour = nearest_neighbour(costs, start);
        if (tour && (!best || tour->cost < best->cost)) best = tour;
    }
    return best;
}

namespace {

/// True when `order` lists every node of `costs` exactly once.
bool visits_every_node_once(const CostMatrix& costs,
                            const std::vector<int>& order) {
    if (static_cast<int>(order.size()) != costs.size()) return false;
    std::vector<char> seen(order.size(), 0);
    for (int v : order) {
        if (v < 0 || v >= costs.size() || seen[static_cast<std::size_t>(v)])
            return false;
        seen[static_cast<std::size_t>(v)] = 1;
    }
    return true;
}

}  // namespace

Tour or_opt(const CostMatrix& costs, Tour tour) {
    const int n = static_cast<int>(tour.order.size());
    if (n < 4) return tour;
    // Every move permutes the tour, so no move can be feasible unless the
    // tour already visits each node once.
    if (!visits_every_node_once(costs, tour.order)) return tour;
    const auto at = [&](int pos) {
        return tour.order[static_cast<std::size_t>(pos)];
    };
    // Moves are built and priced in this one buffer; an accepted move
    // swaps it with the tour's order.
    std::vector<int> candidate(static_cast<std::size_t>(n));
    bool improved = true;
    while (improved) {
        improved = false;
        for (int seg_len = 1; seg_len <= 3 && !improved; ++seg_len) {
            for (int from = 0; from < n && !improved; ++from) {
                // Segment occupies positions from .. from+seg_len-1 (mod n).
                for (int to = 0; to < n && !improved; ++to) {
                    // Skip insertion points inside or adjacent to the
                    // segment: to == from + k (mod n), k in -1..seg_len.
                    if ((to - from + 1 + n) % n <= seg_len + 1) continue;

                    std::size_t out = 0;
                    for (int idx = 0; idx < n; ++idx) {
                        if ((idx - from + n) % n < seg_len) continue;
                        candidate[out++] = at(idx);
                        if (idx == to)
                            for (int k = 0; k < seg_len; ++k)
                                candidate[out++] = at((from + k) % n);
                    }

                    Cost c = 0;
                    bool feasible = true;
                    for (std::size_t k = 0; k < candidate.size(); ++k) {
                        const Cost arc =
                            costs.at(candidate[k],
                                     candidate[(k + 1) % candidate.size()]);
                        if (arc >= kForbidden) {
                            feasible = false;
                            break;
                        }
                        c += arc;
                    }
                    if (feasible && c < tour.cost) {
                        tour.order.swap(candidate);
                        tour.cost = c;
                        improved = true;
                    }
                }
            }
        }
    }
    return tour;
}

std::optional<Tour> heuristic_tour(const CostMatrix& costs) {
    auto tour = best_nearest_neighbour(costs);
    if (!tour) return std::nullopt;
    return or_opt(costs, std::move(*tour));
}

}  // namespace mtg::atsp
