/// Synthesis battery: skeleton rendering invariants, scorer attribution,
/// and the determinism contract — the
/// same (kinds, beam, lookahead, seed) must synthesise byte-identical
/// tests on every backend, lane width and worker count, because the
/// search consumes only Engine verdicts (bit-identical by contract) and
/// seeded tie-breaks (no wall-clock, no unordered iteration).

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "sim/march_runner.hpp"
#include "synth/beam_search.hpp"
#include "synth/scorer.hpp"
#include "synth/skeleton.hpp"
#include "util/thread_pool.hpp"
#include "word/background.hpp"

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

    // The explicit-population conveniences count too, in both universes.
    const std::vector<sim::InjectedFault> bit_faults{
        sim::InjectedFault::single(FaultKind::Saf0, 1)};
    (void)engine.detects(query.test, bit_faults);
    (void)engine.traces(query.test, bit_faults);
    const std::vector<word::InjectedBitFault> word_faults{
        word::InjectedBitFault::single(FaultKind::Saf0, {1, 0})};
    const auto backgrounds = word::solid_background(8);
    (void)engine.detects(query.test, backgrounds, word_faults);
    (void)engine.traces(query.test, backgrounds, word_faults);

    const engine::Engine::Stats stats = engine.stats();
    EXPECT_EQ(stats.want_detects, 4u);
    EXPECT_EQ(stats.want_detects_all, 1u);
    EXPECT_EQ(stats.want_traces, 3u);
    EXPECT_EQ(stats.want_sweeps, 0u);
    EXPECT_EQ(stats.queries, 8u);
    EXPECT_GE(stats.cache.hits + stats.cache.misses, 1u);
}

// ---- Scorer ----------------------------------------------------------------

TEST(Scorer, AttributesCoveragePerKindThroughOffsets) {
    engine::Engine engine;
    synth::ScorerConfig config;
    config.kinds = {FaultKind::Saf0, FaultKind::Saf1, FaultKind::CfinUp};
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
        // The accepted test passes the coverage gate.
        synth::ScorerConfig config;
        config.kinds = fault::parse_fault_kinds(c.kinds);
        synth::Scorer gate(engine, config);
        EXPECT_TRUE(gate.accepts_full(result.test)) << c.kinds;
        EXPECT_TRUE(sim::is_well_formed(result.test)) << c.kinds;
    }
}

TEST(BeamSearch, SearchResultCoversEveryPlacement) {
    // The search accepts on a full probe of the class population; the
    // accepted test must detect every explicit placement of every kind.
    engine::Engine engine;
    const synth::SearchResult result = run_search(engine, "SAF,TF,CFin", 7);
    ASSERT_TRUE(result.found());
    const sim::RunOptions opts;
    for (const FaultKind kind : fault::parse_fault_kinds("SAF,TF,CFin")) {
        const std::vector<sim::InjectedFault> placements =
            sim::full_population(kind, opts.memory_size);
        for (const bool detected :
             engine.detects(result.test, placements, opts))
            EXPECT_TRUE(detected) << fault::fault_kind_name(kind);
    }
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
