#include "atsp/heuristics.hpp"

#include <algorithm>

namespace mtg::atsp {

namespace {

/// The nearest-neighbour walk from `start`, written into `order`, with
/// `visited` as scratch; both keep their capacity across calls. False at
/// a dead end of forbidden arcs.
bool nearest_neighbour_order(const CostMatrix& costs, int start,
                             std::vector<char>& visited,
                             std::vector<int>& order) {
    const int n = costs.size();
    MTG_EXPECTS(start >= 0 && start < n);
    visited.assign(static_cast<std::size_t>(n), 0);
    order.clear();
    int current = start;
    visited[static_cast<std::size_t>(current)] = 1;
    order.push_back(current);
    for (int step = 1; step < n; ++step) {
        int best = -1;
        Cost best_cost = kForbidden;
        for (int next = 0; next < n; ++next) {
            if (visited[static_cast<std::size_t>(next)] != 0) continue;
            const Cost c = costs.at(current, next);
            if (c < best_cost) {
                best_cost = c;
                best = next;
            }
        }
        if (best < 0) return false;
        visited[static_cast<std::size_t>(best)] = 1;
        order.push_back(best);
        current = best;
    }
    return !costs.is_forbidden(current, start);
}

}  // namespace

std::optional<Tour> nearest_neighbour(const CostMatrix& costs, int start) {
    std::vector<char> visited;
    Tour tour;
    if (!nearest_neighbour_order(costs, start, visited, tour.order))
        return std::nullopt;
    tour.cost = tour_cost(costs, tour.order);
    return tour;
}

std::optional<Tour> best_nearest_neighbour(const CostMatrix& costs) {
    std::optional<Tour> best;
    // One scratch walk for every start; an improving walk is swapped into
    // `best`, whose old order becomes the next walk's buffer.
    std::vector<char> visited;
    std::vector<int> order;
    for (int start = 0; start < costs.size(); ++start) {
        if (!nearest_neighbour_order(costs, start, visited, order)) continue;
        const Cost cost = tour_cost(costs, order);
        if (best && cost >= best->cost) continue;
        if (!best) best.emplace();
        best->order.swap(order);
        best->cost = cost;
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
        return tour.order[static_cast<std::size_t>(pos % n)];
    };
    // A move changes three arcs of the tour, so it is priced from the
    // current order's true cost (forbidden arcs included) and its count
    // of forbidden arcs: the move is feasible when no forbidden arc is
    // left, and then its price is the exact sum of its arcs. The caller's
    // `cost` may be stale: a move must beat that field, and an accepted
    // move sets it to the move's true cost.
    Cost current = 0;
    int forbidden = 0;
    for (int k = 0; k < n; ++k) {
        const Cost arc = costs.at(at(k), at(k + 1));
        current += arc;
        if (arc >= kForbidden) ++forbidden;
    }
    // An accepted move is built in this one buffer and swapped with the
    // tour's order.
    std::vector<int> candidate(static_cast<std::size_t>(n));
    bool improved = true;
    while (improved) {
        improved = false;
        for (int seg_len = 1; seg_len <= 3 && !improved; ++seg_len) {
            for (int from = 0; from < n && !improved; ++from) {
                // Segment occupies positions from .. from+seg_len-1 (mod n).
                const int before = at(from + n - 1);
                const int first = at(from);
                const int last = at(from + seg_len - 1);
                const int after = at(from + seg_len);
                for (int to = 0; to < n && !improved; ++to) {
                    // Skip insertion points inside or adjacent to the
                    // segment: to == from + k (mod n), k in -1..seg_len.
                    if ((to - from + 1 + n) % n <= seg_len + 1) continue;

                    // The segment moves between `to` and its successor.
                    const int dest = at(to);
                    const int dest_next = at(to + 1);
                    const Cost removed[] = {costs.at(before, first),
                                            costs.at(last, after),
                                            costs.at(dest, dest_next)};
                    const Cost added[] = {costs.at(before, after),
                                          costs.at(dest, first),
                                          costs.at(last, dest_next)};
                    Cost c = current;
                    int left = forbidden;
                    for (int k = 0; k < 3; ++k) {
                        c += added[k] - removed[k];
                        left += (added[k] >= kForbidden ? 1 : 0) -
                                (removed[k] >= kForbidden ? 1 : 0);
                    }
                    if (left != 0 || c >= tour.cost) continue;

                    std::size_t out = 0;
                    for (int idx = 0; idx < n; ++idx) {
                        if ((idx - from + n) % n < seg_len) continue;
                        candidate[out++] = at(idx);
                        if (idx == to)
                            for (int k = 0; k < seg_len; ++k)
                                candidate[out++] = at(from + k);
                    }
                    tour.order.swap(candidate);
                    tour.cost = c;
                    current = c;
                    forbidden = 0;
                    improved = true;
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
