/// \file bench_synth.cpp
/// Synthesis-loop throughput: fitness probes/sec sustained through the
/// Engine population cache, with and without dominance pruning, plus
/// end-to-end time-to-first-covering-test for the beam search.
///
/// The probe legs disable the Scorer's own probe cache (capacity 0) so
/// every probe really sweeps its population — the comparison isolates
/// what engine/dominance.hpp buys per probe on a two-cell universe
/// (coupling faults place O(n²) aggressor/victim pairs; dominance
/// collapses them to one representative per relational class). The
/// Engine's population cache stays warm in both legs, as it is in a real
/// search. The search leg then times whole BeamSearch::run calls on a
/// fresh Scorer each sweep (cold probe cache, warm Engine) — the figure
/// a user sees between typing `march_tool synth` and the test.
///
/// Emits BENCH_synth.json (keys end in _per_sec; scripts/bench_diff.py
/// diffs them against the committed dev-box baseline in CI).

#include <array>
#include <cstdio>
#include <vector>

#include "bench_timing.hpp"
#include "engine/engine.hpp"
#include "fault/kinds.hpp"
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

double probes_per_sec(const engine::Engine& engine,
                      const std::vector<synth::Skeleton>& candidates,
                      const std::vector<fault::FaultKind>& kinds,
                      bool prune) {
    synth::ScorerConfig config;
    config.kinds = kinds;
    config.prune = prune;
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

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);

    const engine::Engine engine;
    const std::vector<synth::Skeleton> candidates = probe_candidates();

    // Two-cell universe: inversion couplings + the single-cell kinds a
    // real search targets alongside them.
    const auto kinds = fault::parse_fault_kinds("SAF,TF,CFin");
    const auto full =
        engine.bit_population(kinds, sim::RunOptions{}.memory_size, false);
    const auto pruned =
        engine.bit_population(kinds, sim::RunOptions{}.memory_size, true);

    const double full_pps = probes_per_sec(engine, candidates, kinds, false);
    const double pruned_pps = probes_per_sec(engine, candidates, kinds, true);
    std::printf(
        "Fitness probes (%zu candidates, SAF,TF,CFin universe):\n"
        "  full universe   : %6zu faults, %10.0f probes/sec\n"
        "  pruned universe : %6zu faults, %10.0f probes/sec\n"
        "  pruning speedup : %.2fx\n\n",
        candidates.size(), full->faults.size(), full_pps,
        pruned->faults.size(), pruned_pps, pruned_pps / full_pps);

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
        .field("full_faults", full->faults.size())
        .field("pruned_faults", pruned->faults.size())
        .field("full_probes_per_sec", full_pps)
        .field("pruned_probes_per_sec", pruned_pps)
        .field("pruned_vs_full", pruned_pps / full_pps, 2)
        .field("searches_per_sec", 1.0 / search_sec, 2)
        .field("time_to_first_test_ms", search_sec * 1e3, 1)
        .print();

    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
