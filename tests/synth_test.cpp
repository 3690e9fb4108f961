/// Synthesis battery: skeleton rendering invariants, dominance-pruning
/// soundness, scorer attribution, and the determinism contract — the
/// same (kinds, beam, lookahead, seed) must synthesise byte-identical
/// tests on every backend, lane width and worker count, because the
/// search consumes only Engine verdicts (bit-identical by contract) and
/// seeded tie-breaks (no wall-clock, no unordered iteration).

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "fault/dominance.hpp"
#include "fault/fault_list.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "sim/batch_runner.hpp"
#include "sim/march_runner.hpp"
#include "synth/beam_search.hpp"
#include "synth/scorer.hpp"
#include "synth/skeleton.hpp"
#include "util/thread_pool.hpp"

namespace mtg {
namespace {

using fault::FaultKind;
using synth::Skeleton;
using synth::Slot;
using synth::SlotOp;

/// Every one- and two-slot skeleton over the full template library —
/// the shapes the first beam rounds probe.
std::vector<Skeleton> template_shapes() {
    static constexpr std::array<march::AddressOrder, 3> kOrders{
        march::AddressOrder::Any, march::AddressOrder::Ascending,
        march::AddressOrder::Descending};
    std::vector<Skeleton> shapes;
    const auto& templates = synth::slot_templates(/*include_delay=*/true);
    for (int polarity : {0, 1}) {
        for (const auto& first : templates) {
            for (const march::AddressOrder order : kOrders) {
                Skeleton one{polarity, {Slot{order, first}}};
                if (!one.starts_with_write()) continue;
                shapes.push_back(one);
                for (const auto& second : templates) {
                    Skeleton two = one;
                    two.slots.push_back(
                        Slot{march::AddressOrder::Descending, second});
                    shapes.push_back(std::move(two));
                }
            }
        }
    }
    return shapes;
}

// ---- Skeleton --------------------------------------------------------------

TEST(Skeleton, RendersWellFormedByConstruction) {
    for (const Skeleton& shape : template_shapes())
        EXPECT_TRUE(sim::is_well_formed(shape.render()))
            << shape.canonical_text();
}

TEST(Skeleton, RenderTracksValueAcrossSlots) {
    // init 0: w0 | r0, w1, r1 | r1, w0 — every read matches the value the
    // previous write left behind, across slot boundaries.
    const Skeleton s{0,
                     {Slot{march::AddressOrder::Any, {SlotOp::WriteSame}},
                      Slot{march::AddressOrder::Ascending,
                           {SlotOp::Read, SlotOp::WriteFlip, SlotOp::Read}},
                      Slot{march::AddressOrder::Descending,
                           {SlotOp::Read, SlotOp::WriteFlip}}}};
    EXPECT_EQ(s.render().str(), "{~(w0); ^(r0,w1,r1); v(r1,w0)}");
    EXPECT_EQ(s.complexity(), 6);

    Skeleton flipped = s;
    flipped.init_polarity = 1;
    EXPECT_EQ(flipped.render().str(), "{~(w1); ^(r1,w0,r0); v(r0,w1)}");
}

TEST(Skeleton, CanonicalTextRoundTripsTheParser) {
    // The probe cache and the determinism contract both key on this text;
    // parse(render(t)) == render(t) for every shape the search can emit.
    for (const Skeleton& shape : template_shapes()) {
        const march::MarchTest rendered = shape.render();
        EXPECT_EQ(march::parse_march(shape.canonical_text()), rendered)
            << shape.canonical_text();
    }
}

// ---- dominance pruning -----------------------------------------------------

TEST(Dominance, CollapsesPlacementsToRelationalClasses) {
    const auto full = sim::full_population(FaultKind::CfinUp, 8);
    const auto kept = fault::dominance_prune(
        std::span<const sim::InjectedFault>(full));
    // Two-cell kind, one kind present: one representative per relative
    // order of aggressor and victim.
    ASSERT_EQ(kept.size(), 2u);
    const bool first_ascending = kept[0].cell_a < kept[0].cell_b;
    EXPECT_NE(first_ascending, kept[1].cell_a < kept[1].cell_b);
}

TEST(Dominance, DropsKindsDominatedByPresentKinds) {
    engine::Engine engine;
    // SAF alone: kept (one placement per polarity).
    const auto saf = engine.bit_population({FaultKind::Saf0, FaultKind::Saf1},
                                           8, /*pruned=*/true);
    EXPECT_EQ(saf->faults.size(), 2u);
    // SAF + TF: the TFs dominate both SAF polarities — only TFs survive.
    const auto saftf = engine.bit_population(
        {FaultKind::Saf0, FaultKind::Saf1, FaultKind::TfUp,
         FaultKind::TfDown},
        8, /*pruned=*/true);
    std::set<FaultKind> kinds;
    for (const auto& fault : saftf->faults) kinds.insert(fault.kind);
    EXPECT_EQ(kinds, (std::set<FaultKind>{FaultKind::TfUp,
                                          FaultKind::TfDown}));
}

TEST(Dominance, PrunedVerdictAgreesWithFullOnEveryLibraryTest) {
    // The soundness property behind the accelerator: a test covers the
    // pruned universe iff it covers the full one. Checked for every
    // library test against every Table 3 fault list.
    engine::Engine engine;
    for (const auto& list : fault::table3_fault_lists()) {
        for (const auto& named : march::known_march_tests()) {
            engine::Query query;
            query.test = named.test;
            query.universe = engine::BitUniverse{};
            query.want = engine::Want::DetectsAll;
            query.kinds = list.kinds;
            const bool full = engine.run(query).all;
            query.prune = true;
            const bool pruned = engine.run(query).all;
            EXPECT_EQ(full, pruned)
                << named.name << " over " << list.name;
        }
    }
}

TEST(Dominance, PrunedCacheEntriesDeriveFromFullLayout) {
    engine::Engine engine;
    const std::vector<FaultKind> kinds{FaultKind::Saf0, FaultKind::CfinUp,
                                       FaultKind::Rdf1};
    const auto full = engine.bit_population(kinds, 8, false);
    const auto pruned = engine.bit_population(kinds, 8, true);
    ASSERT_EQ(full->kinds, pruned->kinds);
    ASSERT_EQ(pruned->offsets.size(), pruned->kinds.size() + 1);
    EXPECT_LT(pruned->faults.size(), full->faults.size());
    // Segment k of the pruned entry is a subsequence of segment k of the
    // full entry — per-kind attribution indexes stay meaningful.
    for (std::size_t k = 0; k + 1 < pruned->offsets.size(); ++k) {
        std::size_t cursor = full->offsets[k];
        for (std::size_t i = pruned->offsets[k]; i < pruned->offsets[k + 1];
             ++i) {
            while (cursor < full->offsets[k + 1] &&
                   !(full->faults[cursor] == pruned->faults[i]))
                ++cursor;
            ASSERT_LT(cursor, full->offsets[k + 1]);
            ++cursor;
        }
    }
    // Distinct cache keys: both entries retained, not one overwriting
    // the other.
    EXPECT_NE(full.get(), pruned.get());
    EXPECT_EQ(engine.bit_population(kinds, 8, false).get(), full.get());
    EXPECT_EQ(engine.bit_population(kinds, 8, true).get(), pruned.get());
}

TEST(Dominance, WordMaskKeepsBitPositionsDistinct) {
    // Backgrounds assign data per bit position, so pruning must never
    // collapse two placements at different bit positions.
    word::WordRunOptions opts;
    opts.words = 4;
    opts.width = 4;
    engine::Engine engine;
    const auto pruned = engine.word_population({FaultKind::Saf0}, opts, true);
    std::set<int> bits;
    for (const auto& fault : pruned->faults) bits.insert(fault.a.bit);
    EXPECT_EQ(bits.size(), 4u);
}

// ---- Engine observability --------------------------------------------------

TEST(EngineStats, CountsQueriesPerWant) {
    engine::Engine engine;
    engine::Query query;
    query.test = march::find_march_test("MATS+").test;
    query.universe = engine::BitUniverse{};
    query.kinds = {FaultKind::Saf0, FaultKind::Saf1};
    query.want = engine::Want::Detects;
    (void)engine.run(query);
    (void)engine.run(query);
    query.want = engine::Want::DetectsAll;
    (void)engine.run(query);
    query.want = engine::Want::Traces;
    (void)engine.run(query);

    const engine::Engine::Stats stats = engine.stats();
    EXPECT_EQ(stats.want_detects, 2u);
    EXPECT_EQ(stats.want_detects_all, 1u);
    EXPECT_EQ(stats.want_traces, 1u);
    EXPECT_EQ(stats.want_sweeps, 0u);
    EXPECT_EQ(stats.queries, 4u);
    EXPECT_GE(stats.cache.hits + stats.cache.misses, 1u);
}

// ---- Scorer ----------------------------------------------------------------

TEST(Scorer, AttributesCoveragePerKindThroughOffsets) {
    engine::Engine engine;
    synth::ScorerConfig config;
    config.kinds = {FaultKind::Saf0, FaultKind::Saf1, FaultKind::CfinUp};
    config.prune = false;
    synth::Scorer scorer(engine, config);

    // SCAN covers SAF everywhere but not CFin.
    Skeleton scan{0,
                  {Slot{march::AddressOrder::Any, {SlotOp::WriteSame}},
                   Slot{march::AddressOrder::Any, {SlotOp::Read}},
                   Slot{march::AddressOrder::Any, {SlotOp::WriteFlip}},
                   Slot{march::AddressOrder::Any, {SlotOp::Read}}}};
    ASSERT_EQ(scan.render().str(), "{~(w0); ~(r0); ~(w1); ~(r1)}");

    const synth::Score score = scorer.probe(scan);
    ASSERT_EQ(score.kind_covered.size(), 3u);
    ASSERT_EQ(scorer.kinds(),
              (std::vector<FaultKind>{FaultKind::Saf0, FaultKind::Saf1,
                                      FaultKind::CfinUp}));
    EXPECT_EQ(score.kind_covered[0], score.kind_total[0]);  // Saf0
    EXPECT_EQ(score.kind_covered[1], score.kind_total[1]);  // Saf1
    EXPECT_LT(score.kind_covered[2], score.kind_total[2]);  // CfinUp escapes
    EXPECT_FALSE(score.full());
    EXPECT_EQ(score.kinds_full(), 2u);
    std::size_t sum = 0;
    for (std::size_t k = 0; k < score.kind_covered.size(); ++k)
        sum += score.kind_covered[k];
    EXPECT_EQ(score.covered, sum);
    EXPECT_FALSE(scorer.accepts_full(scan));
}

TEST(Scorer, ProbeCacheServesRepeatedCandidates) {
    engine::Engine engine;
    synth::ScorerConfig config;
    config.kinds = {FaultKind::Saf0, FaultKind::Saf1};
    synth::Scorer scorer(engine, config);
    const Skeleton shape{
        0, {Slot{march::AddressOrder::Any,
                 {SlotOp::WriteSame, SlotOp::Read, SlotOp::WriteFlip,
                  SlotOp::Read}}}};
    const synth::Score first = scorer.probe(shape);
    const synth::Score second = scorer.probe(shape);
    EXPECT_EQ(first.covered, second.covered);
    EXPECT_EQ(scorer.stats().probes, 2u);
    EXPECT_EQ(scorer.stats().cache_hits, 1u);
}

// ---- BeamSearch: rediscovery + determinism ---------------------------------

/// Kind subsets the search must cover at-or-below the best library test
/// that covers them (the ROADMAP acceptance bar).
struct RediscoveryCase {
    const char* kinds;
    int library_best;  ///< shortest covering library test, ops per cell
};

const RediscoveryCase kRediscovery[] = {
    {"SAF", 4},          // SCAN / MATS
    {"SAF,TF", 6},       // MATS++ (5n MATS+ misses ⇕ TF corner cases)
    {"SAF,TF,ADF", 6},   // MATS++
    {"CFin", 6},         // March X
};

synth::SearchResult run_search(const engine::Engine& engine,
                               const std::string& kinds,
                               std::uint64_t seed) {
    synth::ScorerConfig config;
    config.kinds = fault::parse_fault_kinds(kinds);
    synth::Scorer scorer(engine, config);
    synth::SearchConfig search;
    search.beam_width = 6;
    search.seed = seed;
    return synth::BeamSearch(scorer, search).run();
}

TEST(BeamSearch, RediscoversLibraryTestsOrShorter) {
    engine::Engine engine;
    for (const RediscoveryCase& c : kRediscovery) {
        const synth::SearchResult result = run_search(engine, c.kinds, 1);
        ASSERT_TRUE(result.found()) << c.kinds;
        EXPECT_LE(result.test.complexity(), c.library_best) << c.kinds;
        // The accepted test proves coverage on the FULL universe.
        synth::ScorerConfig config;
        config.kinds = fault::parse_fault_kinds(c.kinds);
        synth::Scorer gate(engine, config);
        EXPECT_TRUE(gate.accepts_full(result.test)) << c.kinds;
        EXPECT_TRUE(sim::is_well_formed(result.test)) << c.kinds;
    }
}

TEST(BeamSearch, PrunedSearchResultRevalidatesOnFullUniverse) {
    // The search probes the pruned universe; its accept is only issued
    // through the full-universe gate. Check the invariant end to end.
    engine::Engine engine;
    const synth::SearchResult result = run_search(engine, "SAF,TF,CFin", 7);
    ASSERT_TRUE(result.found());
    engine::Query query;
    query.test = result.test;
    query.universe = engine::BitUniverse{};
    query.want = engine::Want::DetectsAll;
    query.kinds = fault::parse_fault_kinds("SAF,TF,CFin");
    query.prune = false;
    EXPECT_TRUE(engine.run(query).all);
}

TEST(BeamSearch, DeterministicAcrossBackendsWidthsAndWorkers) {
    // The determinism battery: every session shape must synthesise the
    // same test for the same (kinds, beam, seed).
    const std::string kinds = "SAF,TF";
    std::vector<std::string> synthesised;

    for (const unsigned workers : {1u, 2u, 4u}) {
        util::ThreadPool pool(workers);
        engine::EngineConfig config;
        config.backend = engine::BackendKind::Packed;
        config.pool = &pool;
        engine::Engine engine(config);
        synthesised.push_back(run_search(engine, kinds, 42).test.str());
    }
    {
        engine::EngineConfig config;
        config.backend = engine::BackendKind::Scalar;
        engine::Engine engine(config);
        synthesised.push_back(run_search(engine, kinds, 42).test.str());
    }
    for (const int width : {1, 4, 8}) {
        engine::EngineConfig config;
        config.backend = engine::BackendKind::Packed;
        config.lane_width = width;
        engine::Engine engine(config);
        synthesised.push_back(run_search(engine, kinds, 42).test.str());
    }

    for (std::size_t i = 1; i < synthesised.size(); ++i)
        EXPECT_EQ(synthesised[i], synthesised[0]) << "session shape " << i;
}

TEST(BeamSearch, SeedOnlyPerturbsTieBreaks) {
    // Different seeds may pick different equally-good tests, but every
    // accepted test still passes the gate at equal-or-better length.
    engine::Engine engine;
    for (const std::uint64_t seed : {1ull, 2ull, 99ull}) {
        const synth::SearchResult result = run_search(engine, "SAF", seed);
        ASSERT_TRUE(result.found()) << seed;
        EXPECT_LE(result.test.complexity(), 4) << seed;
    }
    // And the same seed twice on one engine is byte-identical.
    EXPECT_EQ(run_search(engine, "SAF", 5).test.str(),
              run_search(engine, "SAF", 5).test.str());
}

TEST(LookaheadRefiner, NeverLengthensAndPreservesAcceptance) {
    engine::Engine engine;
    synth::ScorerConfig config;
    config.kinds = fault::parse_fault_kinds("SAF");
    synth::Scorer scorer(engine, config);
    // A deliberately bloated covering skeleton: refine must shrink it (or
    // at worst keep it) while staying accepted.
    const Skeleton bloated{
        0,
        {Slot{march::AddressOrder::Any, {SlotOp::WriteSame, SlotOp::Read}},
         Slot{march::AddressOrder::Ascending, {SlotOp::Read, SlotOp::Read}},
         Slot{march::AddressOrder::Any, {SlotOp::WriteFlip, SlotOp::Read}},
         Slot{march::AddressOrder::Descending, {SlotOp::Read}}}};
    ASSERT_TRUE(scorer.accepts_full(bloated));
    const Skeleton refined = synth::LookaheadRefiner(scorer).refine(bloated);
    EXPECT_LE(refined.complexity(), bloated.complexity());
    EXPECT_TRUE(scorer.accepts_full(refined));
    EXPECT_LT(refined.complexity(), bloated.complexity());
}

TEST(TieBreakHash, SeededAndStable) {
    const std::uint64_t a = synth::tie_break_hash("{~(w0)}", 1);
    EXPECT_EQ(a, synth::tie_break_hash("{~(w0)}", 1));
    EXPECT_NE(a, synth::tie_break_hash("{~(w0)}", 2));
    EXPECT_NE(a, synth::tie_break_hash("{~(w1)}", 1));
}

}  // namespace
}  // namespace mtg
