#pragma once

/// \file plan.hpp
/// Seeded inputs of the two workloads. Everything a run sends to the
/// program is a pure function of the workload seed, so the same seed
/// replays the same request stream and `perfbench_driver plan` can print
/// it for the determinism tests.

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: small, seedable, identical on every platform.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) {
        return static_cast<std::size_t>(next() % n);
    }
    template <typename T>
    void shuffle(std::vector<T>& items) {
        for (std::size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[below(i)]);
    }

private:
    std::uint64_t state_;
};

/// Independent streams of one seed, one per use (a workload's request
/// order), so adding draws to one never shifts another.
inline Rng stream(std::uint64_t seed, std::uint64_t salt) {
    return Rng(seed * 0x100000001b3ULL ^ (salt + 0x9e3779b97f4a7c15ULL));
}

// ---- generate -------------------------------------------------------------

/// Row order of one whole-table request: a permutation of Table 3's six
/// rows.
inline std::vector<int> table_order(Rng& rng) {
    std::vector<int> order{0, 1, 2, 3, 4, 5};
    rng.shuffle(order);
    return order;
}

// ---- sweep ----------------------------------------------------------------

/// Campaign shapes: bit universe (CFin,CFid,CFst) on 16 cells — several
/// 504-lane blocks — and a 4 × 8 counting-background word universe
/// (CFid).
inline constexpr int kSweepCells = 16;
inline constexpr int kSweepWords = 4;
inline constexpr int kSweepWidth = 8;
inline const char* const kSweepBitKinds = "CFin,CFid,CFst";
inline const char* const kSweepWordKinds = "CFid";

/// Library test order of one campaign.
inline std::vector<std::size_t> campaign_order(Rng& rng, std::size_t tests) {
    std::vector<std::size_t> order(tests);
    for (std::size_t i = 0; i < tests; ++i) order[i] = i;
    rng.shuffle(order);
    return order;
}

}  // namespace perfbench
