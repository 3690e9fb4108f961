#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "atsp/branch_bound.hpp"
#include "atsp/heuristics.hpp"
#include "atsp/hungarian.hpp"
#include "atsp/path.hpp"
#include "util/rng.hpp"

namespace mtg::atsp {
namespace {

CostMatrix random_instance(int n, SplitMix64& rng, Cost max_cost = 50) {
    CostMatrix m(n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            if (i != j)
                m.set(i, j, static_cast<Cost>(rng.below(
                                static_cast<std::uint64_t>(max_cost) + 1)));
    return m;
}

TEST(CostMatrix, DiagonalForbidden) {
    CostMatrix m(3, 7);
    EXPECT_TRUE(m.is_forbidden(1, 1));
    EXPECT_EQ(m.at(0, 1), 7);
    m.forbid(0, 1);
    EXPECT_TRUE(m.is_forbidden(0, 1));
}

TEST(Tour, CostAndFeasibility) {
    CostMatrix m(3, 1);
    m.set(0, 1, 2);
    m.set(1, 2, 3);
    m.set(2, 0, 4);
    EXPECT_EQ(tour_cost(m, {0, 1, 2}), 9);
    EXPECT_TRUE(tour_feasible(m, {0, 1, 2}));
    EXPECT_FALSE(tour_feasible(m, {0, 1}));       // not a permutation
    EXPECT_FALSE(tour_feasible(m, {0, 1, 1}));    // duplicate
    m.forbid(1, 2);
    EXPECT_FALSE(tour_feasible(m, {0, 1, 2}));
}

TEST(Tour, RotateToFront) {
    EXPECT_EQ(rotate_to_front({3, 1, 4, 2}, 4), (std::vector<int>{4, 2, 3, 1}));
}

TEST(Hungarian, SolvesTextbookAssignment) {
    CostMatrix m(3, 0);
    // Row i assigned column (i+1)%3 is optimal here.
    const Cost costs[3][3] = {{10, 1, 10}, {10, 10, 1}, {1, 10, 10}};
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            if (i != j) m.set(i, j, costs[i][j]);
    // Diagonal entries stay forbidden; the optimum avoids them anyway.
    const Assignment ap = solve_assignment(m);
    EXPECT_TRUE(ap.feasible);
    EXPECT_EQ(ap.cost, 3);
    EXPECT_EQ(ap.to[0], 1);
    EXPECT_EQ(ap.to[1], 2);
    EXPECT_EQ(ap.to[2], 0);
}

TEST(Hungarian, AssignmentIsLowerBoundOfTour) {
    SplitMix64 rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = rng.range(3, 8);
        const CostMatrix m = random_instance(n, rng);
        const Assignment ap = solve_assignment(m);
        const auto tour = solve_brute_force(m);
        ASSERT_TRUE(tour.has_value());
        EXPECT_LE(ap.cost, tour->cost) << "trial " << trial;
    }
}

TEST(Hungarian, CycleDecomposition) {
    // Permutation (0->1->0)(2->3->4->2).
    const auto cycles = assignment_cycles({1, 0, 3, 4, 2});
    ASSERT_EQ(cycles.size(), 2u);
    EXPECT_EQ(cycles[0].size(), 2u);
    EXPECT_EQ(cycles[1].size(), 3u);
}

TEST(Heuristics, NearestNeighbourProducesValidTour) {
    SplitMix64 rng(11);
    const CostMatrix m = random_instance(6, rng);
    const auto tour = nearest_neighbour(m, 0);
    ASSERT_TRUE(tour.has_value());
    EXPECT_TRUE(tour_feasible(m, tour->order));
    EXPECT_EQ(tour->cost, tour_cost(m, tour->order));
}

/// best_nearest_neighbour reuses one walk buffer across start nodes and
/// keeps an improving walk by swapping it in. Its answer must still be the
/// first cheapest of the per-start tours, or none when no start finds a
/// feasible tour, on instances where forbidden arcs dead-end some walks.
TEST(Heuristics, BestNearestNeighbourIsTheFirstCheapestStart) {
    SplitMix64 rng(0xA75BULL);
    int infeasible = 0;
    for (int round = 0; round < 200; ++round) {
        const int n = 2 + static_cast<int>(rng.below(10));
        CostMatrix m = random_instance(n, rng);
        const std::uint64_t forbid_one_in = 2 + rng.below(4);
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j)
                if (i != j && rng.below(forbid_one_in) == 0) m.forbid(i, j);
        std::optional<Tour> want;
        for (int start = 0; start < n; ++start) {
            const auto tour = nearest_neighbour(m, start);
            if (tour && (!want || tour->cost < want->cost)) want = tour;
        }
        const auto got = best_nearest_neighbour(m);
        ASSERT_EQ(got.has_value(), want.has_value()) << "round " << round;
        if (!want) {
            ++infeasible;
            continue;
        }
        EXPECT_EQ(got->order, want->order) << "round " << round;
        EXPECT_EQ(got->cost, want->cost) << "round " << round;
        EXPECT_TRUE(tour_feasible(m, got->order)) << "round " << round;
    }
    // Both outcomes occur, so the dead-end path is exercised.
    EXPECT_GT(infeasible, 0);
    EXPECT_LT(infeasible, 200);
}

/// The Or-opt of the original implementation, which built three fresh
/// vectors per candidate move. Kept verbatim as the oracle for the
/// allocation-free rewrite: the exact solver's incumbent, and with it the
/// branch-and-bound node counts, depend on Or-opt's scan order and
/// first-improvement rule.
Tour reference_or_opt(const CostMatrix& costs, Tour tour) {
    const int n = static_cast<int>(tour.order.size());
    if (n < 4) return tour;
    bool improved = true;
    while (improved) {
        improved = false;
        for (int seg_len = 1; seg_len <= 3 && !improved; ++seg_len) {
            for (int from = 0; from < n && !improved; ++from) {
                for (int to = 0; to < n && !improved; ++to) {
                    bool overlaps = false;
                    for (int k = -1; k <= seg_len; ++k) {
                        if ((from + k + n) % n == to) {
                            overlaps = true;
                            break;
                        }
                    }
                    if (overlaps) continue;

                    std::vector<int> candidate;
                    candidate.reserve(static_cast<std::size_t>(n));
                    std::vector<bool> in_segment(static_cast<std::size_t>(n),
                                                 false);
                    std::vector<int> segment;
                    for (int k = 0; k < seg_len; ++k) {
                        const int idx = (from + k) % n;
                        in_segment[static_cast<std::size_t>(idx)] = true;
                        segment.push_back(
                            tour.order[static_cast<std::size_t>(idx)]);
                    }
                    for (int idx = 0; idx < n; ++idx) {
                        if (in_segment[static_cast<std::size_t>(idx)]) continue;
                        candidate.push_back(
                            tour.order[static_cast<std::size_t>(idx)]);
                        if (idx == to)
                            candidate.insert(candidate.end(), segment.begin(),
                                             segment.end());
                    }
                    if (static_cast<int>(candidate.size()) != n) continue;
                    if (!tour_feasible(costs, candidate)) continue;
                    const Cost c = tour_cost(costs, candidate);
                    if (c < tour.cost) {
                        tour.order = std::move(candidate);
                        tour.cost = c;
                        improved = true;
                    }
                }
            }
        }
    }
    return tour;
}

/// Or-opt never worsens a tour, keeps a feasible tour feasible, and
/// returns exactly the reference's order and cost. Seeded instances of
/// every size from 4 to 11 nodes, a third of them with forbidden arcs.
/// Each instance starts once from its nearest-neighbour incumbent (when
/// one exists), once from a random permutation, which may itself use
/// forbidden arcs, and once from that permutation with a `cost` field
/// that is not its tour_cost; a start that is not a permutation of the
/// nodes must come back unchanged.
TEST(Heuristics, OrOptNeverWorsens) {
    SplitMix64 rng(7150);
    int compared = 0;
    for (int trial = 0; trial < 160; ++trial) {
        const int n = 4 + trial % 8;
        CostMatrix m = random_instance(n, rng);
        if (trial % 3 == 0)
            for (int i = 0; i < n; ++i)
                for (int j = 0; j < n; ++j)
                    if (i != j && rng.below(4) == 0) m.forbid(i, j);

        std::vector<Tour> starts;
        if (const auto nn = best_nearest_neighbour(m)) starts.push_back(*nn);
        std::vector<int> order(static_cast<std::size_t>(n));
        for (int v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
        for (int k = n - 1; k > 0; --k)
            std::swap(order[static_cast<std::size_t>(k)],
                      order[rng.below(static_cast<std::uint64_t>(k) + 1)]);
        starts.push_back(Tour{order, tour_cost(m, order)});
        // A stale cost field, above or below the order's true cost: moves
        // are compared against the field, and priced from the true cost.
        const Cost stale = static_cast<Cost>(1 + rng.below(40));
        starts.push_back(Tour{order, tour_cost(m, order) +
                                         (trial % 2 == 0 ? stale : -stale)});
        if (trial % 16 == 0) {
            order.back() = order.front();  // not a permutation
            starts.push_back(Tour{order, tour_cost(m, order)});
        }

        for (const Tour& start : starts) {
            const Tour want = reference_or_opt(m, start);
            const Tour got = or_opt(m, start);
            ASSERT_EQ(got.order, want.order) << "trial " << trial;
            ASSERT_EQ(got.cost, want.cost) << "trial " << trial;
            EXPECT_LE(got.cost, start.cost) << "trial " << trial;
            if (tour_feasible(m, start.order)) {
                EXPECT_TRUE(tour_feasible(m, got.order)) << "trial " << trial;
            }
            ++compared;
        }
    }
    EXPECT_GE(compared, 200);
}

TEST(Exact, MatchesBruteForceOnRandomInstances) {
    SplitMix64 rng(2002);
    for (int trial = 0; trial < 40; ++trial) {
        const int n = rng.range(3, 8);
        const CostMatrix m = random_instance(n, rng);
        const auto exact = solve_exact(m);
        const auto brute = solve_brute_force(m);
        ASSERT_EQ(exact.has_value(), brute.has_value()) << "trial " << trial;
        if (exact) {
            EXPECT_EQ(exact->cost, brute->cost) << "trial " << trial;
            EXPECT_TRUE(tour_feasible(m, exact->order));
        }
    }
}

TEST(Exact, HandlesForbiddenArcs) {
    SplitMix64 rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = rng.range(4, 7);
        CostMatrix m = random_instance(n, rng);
        // Forbid a third of the arcs.
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j)
                if (i != j && rng.below(3) == 0) m.forbid(i, j);
        const auto exact = solve_exact(m);
        const auto brute = solve_brute_force(m);
        ASSERT_EQ(exact.has_value(), brute.has_value()) << "trial " << trial;
        if (exact) {
            EXPECT_EQ(exact->cost, brute->cost) << "trial " << trial;
        }
    }
}

TEST(Exact, ReportsSearchStats) {
    SplitMix64 rng(17);
    const CostMatrix m = random_instance(9, rng);
    SolveStats stats;
    (void)solve_exact(m, &stats);
    EXPECT_GT(stats.nodes_explored, 0);
    EXPECT_GT(stats.ap_solves, 0);
}

TEST(Exact, SingleNodeDegenerate) {
    CostMatrix m(1);
    const auto tour = solve_exact(m);
    ASSERT_TRUE(tour.has_value());
    EXPECT_EQ(tour->cost, 0);
}

TEST(Exact, InfeasibleInstanceReturnsNullopt) {
    CostMatrix m(3, 2);
    // Node 2 has no outgoing arcs.
    m.forbid(2, 0);
    m.forbid(2, 1);
    EXPECT_FALSE(solve_exact(m).has_value());
}

/// Oracle for the path solver: brute-force over all permutations.
std::optional<std::pair<std::vector<int>, Cost>> brute_path(
    const CostMatrix& m, const PathOptions& options) {
    const int n = m.size();
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
    std::optional<std::pair<std::vector<int>, Cost>> best;
    do {
        if (!options.allowed_starts.empty() &&
            std::find(options.allowed_starts.begin(),
                      options.allowed_starts.end(),
                      perm[0]) == options.allowed_starts.end())
            continue;
        Cost cost = options.start_cost.empty()
                        ? 0
                        : options.start_cost[static_cast<std::size_t>(perm[0])];
        bool ok = true;
        for (int k = 0; k + 1 < n && ok; ++k) {
            if (m.is_forbidden(perm[static_cast<std::size_t>(k)],
                               perm[static_cast<std::size_t>(k + 1)]))
                ok = false;
            else
                cost += m.at(perm[static_cast<std::size_t>(k)],
                             perm[static_cast<std::size_t>(k + 1)]);
        }
        if (ok && (!best || cost < best->second)) best = {{perm}, cost};
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
}

TEST(Path, MatchesBruteForce) {
    SplitMix64 rng(23);
    for (int trial = 0; trial < 25; ++trial) {
        const int n = rng.range(2, 7);
        const CostMatrix m = random_instance(n, rng);
        PathOptions options;
        for (int v = 0; v < n; ++v)
            options.start_cost.push_back(
                static_cast<Cost>(rng.below(4)));
        const auto path = solve_shortest_path(m, options);
        const auto brute = brute_path(m, options);
        ASSERT_EQ(path.has_value(), brute.has_value()) << "trial " << trial;
        if (path) {
            EXPECT_EQ(path->cost, brute->second) << "trial " << trial;
        }
    }
}

TEST(Path, HonoursAllowedStarts) {
    SplitMix64 rng(29);
    const int n = 6;
    const CostMatrix m = random_instance(n, rng);
    PathOptions options;
    options.allowed_starts = {3, 5};
    const auto path = solve_shortest_path(m, options);
    ASSERT_TRUE(path.has_value());
    EXPECT_TRUE(path->order.front() == 3 || path->order.front() == 5);
    const auto brute = brute_path(m, options);
    EXPECT_EQ(path->cost, brute->second);
}

TEST(Path, EmptyAllowedStartSetMeansUnconstrained) {
    SplitMix64 rng(31);
    const CostMatrix m = random_instance(5, rng);
    EXPECT_TRUE(solve_shortest_path(m, {}).has_value());
}

TEST(Path, SingleNode) {
    CostMatrix m(1);
    PathOptions options;
    options.start_cost = {2};
    const auto path = solve_shortest_path(m, options);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->cost, 2);
    EXPECT_EQ(path->order, std::vector<int>{0});
}

}  // namespace
}  // namespace mtg::atsp
