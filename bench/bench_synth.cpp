/// \file bench_synth.cpp
/// Synthesis-loop throughput: fitness probes/sec on the class population
/// against the same candidates over every placement, plus end-to-end
/// time-to-first-covering-test for the beam search.
///
/// The class leg is Scorer probes with the Scorer's own probe cache
/// disabled (capacity 0), so every probe really simulates the cached
/// class population (sim::class_population: one placement per class).
/// The full leg asks Engine::detects over the explicit placements of the
/// same kinds (sim::full_population; coupling faults place O(n²)
/// aggressor/victim pairs) — what a probe would cost without the
/// placement-class lemma. The search leg then times whole BeamSearch::run
/// calls on a fresh Scorer each sweep (cold probe cache, warm Engine) —
/// the figure a user sees between typing `march_tool synth` and the test.
///
/// Emits BENCH_synth.json (keys end in _per_sec; scripts/bench_diff.py
/// diffs them against the committed dev-box baseline in CI).

#include <array>
#include <cstdio>
#include <vector>

#include "bench_timing.hpp"
#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "sim/march_runner.hpp"
#include "synth/beam_search.hpp"
#include "synth/scorer.hpp"
#include "synth/skeleton.hpp"

namespace {

using namespace mtg;

/// Deterministic probe workload: every one- and two-slot skeleton over
/// the template library (orders × opening polarity) that renders
/// well-formed — the candidate shapes the first two beam rounds probe.
std::vector<synth::Skeleton> probe_candidates() {
    static constexpr std::array<march::AddressOrder, 3> kOrders{
        march::AddressOrder::Any, march::AddressOrder::Ascending,
        march::AddressOrder::Descending};
    const auto& templates = synth::slot_templates(/*include_delay=*/false);
    std::vector<synth::Skeleton> candidates;
    for (int polarity : {0, 1}) {
        for (const auto& first : templates) {
            for (const march::AddressOrder first_order : kOrders) {
                synth::Skeleton one{polarity,
                                    {synth::Slot{first_order, first}}};
                if (!one.starts_with_write()) continue;
                candidates.push_back(one);
                for (const auto& second : templates) {
                    synth::Skeleton two = one;
                    two.slots.push_back(
                        synth::Slot{march::AddressOrder::Any, second});
                    candidates.push_back(std::move(two));
                }
            }
        }
    }
    return candidates;
}

/// Scorer probes over the class population of `kinds`.
double class_probes_per_sec(const engine::Engine& engine,
                            const std::vector<synth::Skeleton>& candidates,
                            const std::vector<fault::FaultKind>& kinds) {
    synth::ScorerConfig config;
    config.kinds = kinds;
    config.probe_cache_capacity = 0;  // measure the sweep, not the memo
    synth::Scorer scorer(engine, config);
    const double seconds = benchutil::seconds_per_sweep([&] {
        std::size_t covered = 0;
        for (const synth::Skeleton& candidate : candidates)
            covered += scorer.probe(candidate).covered;
        return covered;
    });
    return static_cast<double>(candidates.size()) / seconds;
}

/// The same candidates over an explicit placement set.
double full_probes_per_sec(const engine::Engine& engine,
                           const std::vector<synth::Skeleton>& candidates,
                           const std::vector<sim::InjectedFault>& placements) {
    const double seconds = benchutil::seconds_per_sweep([&] {
        std::size_t covered = 0;
        for (const synth::Skeleton& candidate : candidates)
            for (const bool detected :
                 engine.detects(candidate.render(), placements))
                covered += detected ? 1 : 0;
        return covered;
    });
    return static_cast<double>(candidates.size()) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);

    const engine::Engine engine;
    const std::vector<synth::Skeleton> candidates = probe_candidates();

    // Two-cell universe: inversion couplings + the single-cell kinds a
    // real search targets alongside them.
    const auto kinds = fault::parse_fault_kinds("SAF,TF,CFin");
    const int cells = sim::RunOptions{}.memory_size;
    const auto classes = engine.bit_population(kinds, cells);
    std::vector<sim::InjectedFault> full;
    for (const fault::FaultKind kind : kinds) {
        const auto placed = sim::full_population(kind, cells);
        full.insert(full.end(), placed.begin(), placed.end());
    }

    const double full_pps = full_probes_per_sec(engine, candidates, full);
    const double class_pps = class_probes_per_sec(engine, candidates, kinds);
    std::printf(
        "Fitness probes (%zu candidates, SAF,TF,CFin universe):\n"
        "  every placement  : %6zu faults, %10.0f probes/sec\n"
        "  class population : %6zu faults, %10.0f probes/sec\n"
        "  class speedup    : %.2fx\n\n",
        candidates.size(), full.size(), full_pps, classes->faults.size(),
        class_pps, class_pps / full_pps);

    // End-to-end: fresh probe cache per sweep, warm Engine — the
    // interactive `march_tool synth` latency.
    synth::SearchConfig search;
    search.beam_width = 8;
    search.seed = 1;
    const double search_sec = benchutil::seconds_per_sweep([&] {
        synth::ScorerConfig config;
        config.kinds = kinds;
        synth::Scorer scorer(engine, config);
        return synth::BeamSearch(scorer, search).run().found() ? 1 : 0;
    });
    std::printf(
        "Time to first covering test (SAF,TF,CFin, beam 8):\n"
        "  %8.1f ms/search (%.1f searches/sec)\n\n",
        search_sec * 1e3, 1.0 / search_sec);

    benchutil::JsonSummary("synth")
        .field("workload", "saf_tf_cfin")
        .field("probe_candidates", candidates.size())
        .field("full_faults", full.size())
        .field("class_faults", classes->faults.size())
        .field("full_probes_per_sec", full_pps)
        .field("class_probes_per_sec", class_pps)
        .field("class_vs_full", class_pps / full_pps, 2)
        .field("searches_per_sec", 1.0 / search_sec, 2)
        .field("time_to_first_test_ms", search_sec * 1e3, 1)
        .print();

    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
