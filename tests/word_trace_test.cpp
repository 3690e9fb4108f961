/// Differential battery for word-path guaranteed traces: the packed
/// WordBatchRunner::run() must reproduce the scalar WordMemory oracle
/// (word::guaranteed_trace) bit-for-bit — for every FaultKind (including
/// forced intra-word pairs), at every lane width W ∈ {1, 4, 8}, for every
/// worker count — and traces must come out in canonical order
/// ((background, element, op[, word]) ascending). Also locks down the
/// kernels' armed pass scratch: reset() reuse, and re-arming across
/// chunks and geometries, behave exactly like fresh memories.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "sim/pass_scratch.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "word/background.hpp"
#include "word/packed_word_memory.hpp"
#include "word/word_batch_runner.hpp"
#include "word/word_kernels.hpp"
#include "word/word_trace.hpp"

namespace mtg::word {
namespace {

using fault::FaultKind;

constexpr int kWords = 3;
constexpr int kWidth = 4;

InjectedBitFault random_placement(FaultKind kind, SplitMix64& rng, int words,
                                  int width) {
    const BitAddr a{rng.range(0, words - 1), rng.range(0, width - 1)};
    if (!fault::is_two_cell(kind)) return InjectedBitFault::single(kind, a);
    for (;;) {
        const BitAddr b{rng.range(0, words - 1), rng.range(0, width - 1)};
        if (!(b == a)) return InjectedBitFault::coupling(kind, a, b);
    }
}

/// Readable mismatch dump for one fault's trace pair.
void expect_trace_eq(const WordRunTrace& packed, const WordRunTrace& oracle,
                     const char* march, FaultKind kind, std::size_t i) {
    ASSERT_EQ(packed.detected, oracle.detected)
        << march << ' ' << fault_kind_name(kind) << " placement " << i;
    ASSERT_EQ(packed.failing_reads.size(), oracle.failing_reads.size())
        << march << ' ' << fault_kind_name(kind) << " placement " << i;
    for (std::size_t r = 0; r < oracle.failing_reads.size(); ++r)
        ASSERT_EQ(packed.failing_reads[r], oracle.failing_reads[r])
            << march << ' ' << fault_kind_name(kind) << " placement " << i
            << " read " << r;
    ASSERT_EQ(packed.failing_observations.size(),
              oracle.failing_observations.size())
        << march << ' ' << fault_kind_name(kind) << " placement " << i;
    for (std::size_t o = 0; o < oracle.failing_observations.size(); ++o)
        ASSERT_EQ(packed.failing_observations[o],
                  oracle.failing_observations[o])
            << march << ' ' << fault_kind_name(kind) << " placement " << i
            << " observation " << o;
}

TEST(WordTraceDifferential, EveryFaultKindMatchesScalarOracle) {
    SplitMix64 rng(0x7ACEDULL);
    WordRunOptions opts;
    opts.words = kWords;
    opts.width = kWidth;
    const auto backgrounds = counting_backgrounds(kWidth);
    for (const char* name : {"MATS++", "March C-"}) {
        const auto& test = march::find_march_test(name).test;
        const WordBatchRunner runner(test, backgrounds, opts);
        for (FaultKind kind : fault::all_fault_kinds()) {
            std::vector<InjectedBitFault> population;
            for (int trial = 0; trial < 8; ++trial)
                population.push_back(
                    random_placement(kind, rng, kWords, kWidth));
            const auto traces = runner.run(population);
            ASSERT_EQ(traces.size(), population.size());
            for (std::size_t i = 0; i < population.size(); ++i)
                expect_trace_eq(
                    traces[i],
                    guaranteed_trace(test, backgrounds, population[i], opts),
                    name, kind, i);
            if (HasFatalFailure()) return;
        }
    }
}

TEST(WordTraceDifferential, ForcedIntraWordPairsMatchScalarOracle) {
    // Intra-word pairs are the word-specific regime (simultaneous
    // aggressor/victim writes in one store); force them for every
    // two-cell kind instead of waiting for the RNG to produce them.
    SplitMix64 rng(0x1A7BAULL);
    WordRunOptions opts;
    opts.words = kWords;
    opts.width = kWidth;
    const auto backgrounds = counting_backgrounds(kWidth);
    const auto& test = march::march_c_minus();
    const WordBatchRunner runner(test, backgrounds, opts);
    for (FaultKind kind : fault::all_fault_kinds()) {
        if (!fault::is_two_cell(kind)) continue;
        std::vector<InjectedBitFault> population;
        for (int trial = 0; trial < 6; ++trial) {
            const int w = rng.range(0, kWords - 1);
            const int a = rng.range(0, kWidth - 1);
            int v = rng.range(0, kWidth - 2);
            if (v >= a) ++v;
            population.push_back(
                InjectedBitFault::coupling(kind, {w, a}, {w, v}));
        }
        const auto traces = runner.run(population);
        for (std::size_t i = 0; i < population.size(); ++i)
            expect_trace_eq(
                traces[i],
                guaranteed_trace(test, backgrounds, population[i], opts),
                "March C-", kind, i);
        if (HasFatalFailure()) return;
    }
}

TEST(WordTraceDifferential, BitIdenticalAcrossLaneWidths) {
    // 8 words × 16 bits single-bit sweep: 128 placements fill three W=1
    // chunks, so the wide blocks actually carry multiple plane words.
    WordRunOptions opts;
    opts.width = 16;
    const auto backgrounds = counting_backgrounds(16);
    const auto& test = march::march_c_minus();
    auto population = coverage_population(FaultKind::TfDown, opts);
    for (int i = 0; i < 40; ++i)  // add two-cell variety across chunks
        population.push_back(coverage_population(FaultKind::CfidUp1, opts)[
            static_cast<std::size_t>(i * 7 % 113)]);
    const auto w1 =
        WordBatchRunner(test, backgrounds, opts, nullptr, 1).run(population);
    const auto w4 =
        WordBatchRunner(test, backgrounds, opts, nullptr, 4).run(population);
    const auto w8 =
        WordBatchRunner(test, backgrounds, opts, nullptr, 8).run(population);
    ASSERT_EQ(w1.size(), population.size());
    for (std::size_t i = 0; i < population.size(); ++i) {
        ASSERT_EQ(w1[i], w4[i]) << "W1 vs W4 placement " << i;
        ASSERT_EQ(w1[i], w8[i]) << "W1 vs W8 placement " << i;
    }
    // Spot-check the widths against the scalar oracle too.
    for (std::size_t i = 0; i < population.size(); i += 17)
        expect_trace_eq(w8[i],
                        guaranteed_trace(test, backgrounds, population[i],
                                         opts),
                        "March C-", population[i].kind, i);
}

TEST(WordTraceDifferential, BitIdenticalAcrossWorkerCounts) {
    WordRunOptions opts;
    opts.width = 8;
    const auto backgrounds = counting_backgrounds(8);
    const auto& test = march::march_c_minus();
    const auto population =
        coverage_population(FaultKind::CfidDown0, opts);
    util::ThreadPool one(1);
    util::ThreadPool two(2);
    const auto serial =
        WordBatchRunner(test, backgrounds, opts, &one).run(population);
    const auto dual =
        WordBatchRunner(test, backgrounds, opts, &two).run(population);
    const auto pooled =
        WordBatchRunner(test, backgrounds, opts).run(population);
    ASSERT_EQ(serial.size(), population.size());
    for (std::size_t i = 0; i < population.size(); ++i) {
        ASSERT_EQ(serial[i], dual[i]) << "1 vs 2 workers, placement " << i;
        ASSERT_EQ(serial[i], pooled[i]) << "1 vs hw workers, placement " << i;
    }
}

TEST(WordTraceDifferential, TracesComeOutInCanonicalOrder) {
    WordRunOptions opts;  // 8 × 8
    const auto backgrounds = counting_backgrounds(8);
    const auto& test = march::march_c_minus();
    const auto population =
        coverage_population(FaultKind::CfinUp, opts);
    const auto traces =
        WordBatchRunner(test, backgrounds, opts).run(population);
    bool any_reads = false, any_obs = false;
    for (const WordRunTrace& trace : traces) {
        for (std::size_t r = 1; r < trace.failing_reads.size(); ++r) {
            const auto& p = trace.failing_reads[r - 1];
            const auto& q = trace.failing_reads[r];
            ASSERT_LT(std::tuple(p.background, p.site.element, p.site.op),
                      std::tuple(q.background, q.site.element, q.site.op));
        }
        for (std::size_t o = 1; o < trace.failing_observations.size(); ++o) {
            const auto& p = trace.failing_observations[o - 1];
            const auto& q = trace.failing_observations[o];
            ASSERT_LT(std::tuple(p.background, p.site.element, p.site.op,
                                 p.word),
                      std::tuple(q.background, q.site.element, q.site.op,
                                 q.word));
        }
        any_reads = any_reads || !trace.failing_reads.empty();
        any_obs = any_obs || !trace.failing_observations.empty();
        for (const WordObservation& obs : trace.failing_observations)
            ASSERT_NE(obs.bits, 0u);  // empty masks must not survive
    }
    EXPECT_TRUE(any_reads);
    EXPECT_TRUE(any_obs);
}

TEST(WordTraceDifferential, MultiReadElementsAndDecoderFaults) {
    // Elements with several reads are where a site can fail at more than
    // one word with another site interleaving (decoder faults fail at
    // both the aggressor and the victim word) — the regime where naive
    // execution-order read lists pick up duplicates. The oracle must
    // stay strictly canonical and the packed path must match it.
    SplitMix64 rng(0xAF2AF2ULL);
    const auto test = march::parse_march(
        "{^(w0); ^(r0,w1,r1); v(r1,w0,r0); ^(r0)}");
    WordRunOptions opts;
    opts.words = 4;
    opts.width = 4;
    const auto backgrounds = counting_backgrounds(opts.width);
    const WordBatchRunner runner(test, backgrounds, opts);
    std::vector<InjectedBitFault> population;
    for (FaultKind kind : fault::all_fault_kinds()) {
        if (!fault::is_two_cell(kind)) continue;
        for (int trial = 0; trial < 6; ++trial)
            population.push_back(
                random_placement(kind, rng, opts.words, opts.width));
    }
    const auto traces = runner.run(population);
    for (std::size_t i = 0; i < population.size(); ++i) {
        const auto oracle =
            guaranteed_trace(test, backgrounds, population[i], opts);
        for (std::size_t r = 1; r < oracle.failing_reads.size(); ++r) {
            const auto& p = oracle.failing_reads[r - 1];
            const auto& q = oracle.failing_reads[r];
            ASSERT_LT(std::tuple(p.background, p.site.element, p.site.op),
                      std::tuple(q.background, q.site.element, q.site.op))
                << fault_kind_name(population[i].kind) << " placement "
                << i;
        }
        expect_trace_eq(traces[i], oracle, "multi-read",
                        population[i].kind, i);
        if (HasFatalFailure()) return;
    }
}

TEST(WordTraceDifferential, SiteFailingAtManyWordsStaysCanonical) {
    // A single site failing at several words with another failing site
    // interleaved is where an execution-order read list picks up
    // duplicates ((site A @ word 0), (site C @ word 0), (site A @ word
    // 1), ...). The trace API accepts such tests (the generator only
    // guards ITS candidates with is_well_formed), so the oracle and the
    // packed path must both emit each (background, site) read once.
    const auto test = march::parse_march("{^(w0); ^(r1,r0,r1)}");
    WordRunOptions opts;
    opts.words = 4;
    opts.width = 4;
    const auto backgrounds = counting_backgrounds(opts.width);
    const auto fault =
        InjectedBitFault::single(FaultKind::Saf0, {1, 2});
    const auto oracle = guaranteed_trace(test, backgrounds, fault, opts);
    // Both r1 sites mismatch at every word in every background; each must
    // appear exactly once per background (the r0 site additionally fails
    // where the stuck bit contradicts the background, which is fine — the
    // strict ordering below is what forbids duplicates).
    std::size_t r1_reads = 0;
    for (const WordReadSite& read : oracle.failing_reads)
        if (read.site.op != 1) ++r1_reads;
    ASSERT_EQ(r1_reads, 2 * backgrounds.size());
    for (std::size_t r = 1; r < oracle.failing_reads.size(); ++r) {
        const auto& p = oracle.failing_reads[r - 1];
        const auto& q = oracle.failing_reads[r];
        ASSERT_LT(std::tuple(p.background, p.site.element, p.site.op),
                  std::tuple(q.background, q.site.element, q.site.op));
    }
    const std::vector<InjectedBitFault> population{fault};
    const auto traces =
        WordBatchRunner(test, backgrounds, opts).run(population);
    expect_trace_eq(traces[0], oracle, "ill-formed", fault.kind, 0);
}

TEST(WordTraceDifferential, DetectedAgreesWithDetects) {
    SplitMix64 rng(0xDE7EC7ULL);
    WordRunOptions opts;
    opts.words = kWords;
    opts.width = kWidth;
    const auto backgrounds = counting_backgrounds(kWidth);
    const auto& test = march::mats_plus_plus();
    const WordBatchRunner runner(test, backgrounds, opts);
    std::vector<InjectedBitFault> population;
    for (FaultKind kind : fault::all_fault_kinds())
        for (int trial = 0; trial < 3; ++trial)
            population.push_back(
                random_placement(kind, rng, kWords, kWidth));
    const auto traces = runner.run(population);
    const auto verdicts = runner.detects(population);
    for (std::size_t i = 0; i < population.size(); ++i)
        ASSERT_EQ(traces[i].detected, verdicts[i]) << i;
}

/// The sweep benchmark's word leg: every library test × the CFid
/// coverage population (276 placements) on 4 words × 8 bits under the
/// counting backgrounds. Packed Traces must equal Scalar Traces fault for
/// fault through Engine sessions at lane widths 0 (CPUID, clamped), 1, 4
/// and 8, and through the W=8 pass in both codegens: the one word_pass_w8
/// hands out (the zmm wrapper on an AVX-512F host) and the generic
/// instantiation.
TEST(WordTraceDifferential, SweepShapeMatchesScalarAtEveryWidthAndCodegen) {
    using engine::Engine;
    using engine::EngineConfig;
    const WordRunOptions opts{.words = 4, .width = 8};
    const auto backgrounds = counting_backgrounds(opts.width);
    const auto kinds = fault::parse_fault_kinds("CFid");
    const Engine scalar(EngineConfig{.backend = engine::BackendKind::Scalar});
    std::vector<std::unique_ptr<Engine>> sessions;
    for (int width : {0, 1, 4, 8})
        sessions.push_back(std::make_unique<Engine>(
            EngineConfig{.backend = engine::BackendKind::Packed,
                         .lane_width = width}));
    const auto population = scalar.word_population(kinds, opts)->faults;
    ASSERT_EQ(population.size(), 276u);
    using Block = sim::LaneBlock<8>;
    const detail::WordPassFn<Block> codegens[] = {
        detail::word_pass_w8(opts.width),
        detail::generic_pass<Block>(opts.width)};

    for (const auto& named : march::known_march_tests()) {
        engine::Query query;
        query.test = named.test;
        query.universe = engine::WordUniverse{backgrounds, opts};
        query.want = engine::Want::Traces;
        query.kinds = kinds;
        const std::vector<WordRunTrace> want = scalar.run(query).word_traces;
        ASSERT_EQ(want.size(), population.size()) << named.name;
        for (const auto& session : sessions) {
            const std::vector<WordRunTrace> got =
                session->run(query).word_traces;
            ASSERT_EQ(got.size(), want.size()) << named.name;
            for (std::size_t i = 0; i < want.size(); ++i)
                expect_trace_eq(got[i], want[i], named.name.c_str(),
                                population[i].kind, i);
            if (HasFatalFailure()) return;
        }
        detail::WordPlan plan;
        plan.test = named.test;
        plan.backgrounds = backgrounds;
        plan.opts = opts;
        plan.pool = &util::ThreadPool::global();
        plan.expansions = expansion_choices(named.test, opts);
        plan.sites = sim::read_sites(named.test);
        for (const auto pass : codegens) {
            const std::vector<WordRunTrace> got =
                detail::word_run(plan, pass, population);
            ASSERT_EQ(got.size(), want.size()) << named.name;
            for (std::size_t i = 0; i < want.size(); ++i)
                expect_trace_eq(got[i], want[i], named.name.c_str(),
                                population[i].kind, i);
            if (HasFatalFailure()) return;
        }
    }
}

TEST(WordTraceDifferential, EmptyPopulation) {
    WordRunOptions opts;
    const auto& test = march::mats_plus_plus();
    const WordBatchRunner runner(test, counting_backgrounds(8), opts);
    EXPECT_TRUE(runner.run({}).empty());
}

// A reset() memory must behave exactly like a freshly constructed one —
// including across a geometry change and with a different fault.
TEST(PackedWordMemoryReset, GeometryAndFaultChange) {
    SplitMix64 rng(0x5C7A7CULL);
    PackedWordMemory reused(2, 2);
    reused.inject(InjectedBitFault::coupling(FaultKind::CfidUp1, {0, 0},
                                             {1, 1}),
                  LaneMask{1} << 5);
    PackedWordMemory::ReadResult got[64];
    reused.write(0, 0b11);
    reused.read(1, got);

    // Re-arm with a different geometry and fault; a fresh memory is the
    // reference.
    reused.reset(kWords, kWidth);
    PackedWordMemory fresh(kWords, kWidth);
    const auto fault =
        InjectedBitFault::single(FaultKind::TfUp, {2, 1});
    reused.inject(fault, LaneMask{1} << 9);
    fresh.inject(fault, LaneMask{1} << 9);
    PackedWordMemory::ReadResult a[64], b[64];
    for (int step = 0; step < 40; ++step) {
        const int word = rng.range(0, kWords - 1);
        const int choice = rng.range(0, 9);
        if (choice < 5) {
            const auto value = rng.next() & ((std::uint64_t{1} << kWidth) - 1);
            reused.write(word, value);
            fresh.write(word, value);
        } else if (choice < 9) {
            reused.read(word, a);
            fresh.read(word, b);
            for (int bit = 0; bit < kWidth; ++bit) {
                ASSERT_EQ(a[bit].value, b[bit].value) << "step " << step;
                ASSERT_EQ(a[bit].known, b[bit].known) << "step " << step;
            }
        } else {
            reused.wait();
            fresh.wait();
        }
        for (int w = 0; w < kWords; ++w)
            for (int bit = 0; bit < kWidth; ++bit)
                ASSERT_EQ(reused.peek({w, bit}, 9), fresh.peek({w, bit}, 9))
                    << "bit (" << w << ',' << bit << ") step " << step;
    }
}

// ---- armed pass scratch ----------------------------------------------------

/// One full chunk of random placements (every fault kind in turn) on a
/// kWords × kWidth memory.
std::vector<InjectedBitFault> random_chunk(SplitMix64& rng) {
    const auto& kinds = fault::all_fault_kinds();
    std::vector<InjectedBitFault> chunk;
    for (int i = 0; i < sim::kChunkLanes; ++i)
        chunk.push_back(random_placement(
            kinds[static_cast<std::size_t>(i) % kinds.size()], rng, kWords,
            kWidth));
    return chunk;
}

/// The re-arm sequence both scratch tests replay: the same chunk twice,
/// two equal-size chunks interleaved A -> B -> A, a chunk that differs
/// from A in one fault, the same chunk with one more word and with twice
/// the bits per word (geometry changes with equal content), and back.
struct ArmStep {
    const char* label;
    const std::vector<InjectedBitFault>* chunk;
    int words;
    int width;
};

std::vector<ArmStep> rearm_sequence(const std::vector<InjectedBitFault>& a,
                                    const std::vector<InjectedBitFault>& b,
                                    const std::vector<InjectedBitFault>& a1) {
    return {{"A", &a, kWords, kWidth},
            {"A again", &a, kWords, kWidth},
            {"B", &b, kWords, kWidth},
            {"A after B", &a, kWords, kWidth},
            {"A one fault changed", &a1, kWords, kWidth},
            {"A with one more word", &a, kWords + 1, kWidth},
            {"A with wider words", &a, kWords, 2 * kWidth},
            {"A back", &a, kWords, kWidth}};
}

/// A with the fault in one lane replaced by a different one.
std::vector<InjectedBitFault> change_one_fault(
    std::vector<InjectedBitFault> a) {
    InjectedBitFault& f = a[31];
    f = InjectedBitFault::single(
        f.kind == FaultKind::Saf0 ? FaultKind::Saf1 : FaultKind::Saf0, f.a);
    return a;
}

/// Drives `armed` (as just handed out for `chunk`), a freshly constructed
/// memory holding the same chunk and one scalar WordMemory per fault
/// through one random op sequence: every read must agree between the two
/// packed memories block for block and with the oracle lane for lane.
void expect_armed_matches_fresh(PackedWordMemory& armed,
                                const std::vector<InjectedBitFault>& chunk,
                                int words, int width, SplitMix64& rng,
                                const char* label) {
    PackedWordMemory fresh(words, width);
    std::vector<WordMemory> oracle;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
        fresh.inject(chunk[i],
                     LaneMask{1} << sim::fault_lane(static_cast<int>(i)));
        oracle.emplace_back(words, width);
        oracle.back().inject(chunk[i]);
    }
    PackedWordMemory::ReadResult got[64], want[64];
    for (int step = 0; step < 60; ++step) {
        const int choice = rng.range(0, 9);
        const int word = rng.range(0, words - 1);
        if (choice < 5) {
            const auto value =
                rng.next() & ((std::uint64_t{1} << width) - 1);
            armed.write(word, value);
            fresh.write(word, value);
            for (WordMemory& m : oracle) m.write(word, value);
        } else if (choice < 9) {
            armed.read(word, got);
            fresh.read(word, want);
            std::vector<std::vector<Trit>> expected;
            for (WordMemory& m : oracle) expected.push_back(m.read(word));
            for (int bit = 0; bit < width; ++bit) {
                ASSERT_EQ(got[bit].value, want[bit].value)
                    << label << " step " << step << " bit " << bit;
                ASSERT_EQ(got[bit].known, want[bit].known)
                    << label << " step " << step << " bit " << bit;
                for (std::size_t i = 0; i < oracle.size(); ++i) {
                    const Trit e = expected[i][static_cast<std::size_t>(bit)];
                    const int lane = sim::fault_lane(static_cast<int>(i));
                    ASSERT_EQ(((got[bit].known >> lane) & 1u) != 0,
                              is_known(e))
                        << label << " step " << step << " fault " << i;
                    if (is_known(e)) {
                        ASSERT_EQ(
                            static_cast<int>((got[bit].value >> lane) & 1u),
                            trit_bit(e))
                            << label << " step " << step << " fault " << i;
                    }
                }
            }
        } else {
            armed.wait();
            fresh.wait();
            for (WordMemory& m : oracle) m.wait();
        }
    }
}

TEST(PassScratch, RearmMatchesFreshMemoryAndScalarOracle) {
    SplitMix64 rng(0xA53EDULL);
    const auto a = random_chunk(rng);
    const auto b = random_chunk(rng);
    const auto a1 = change_one_fault(a);
    ASSERT_NE(a1, a);
    sim::detail::ArmedPassScratch<LaneMask, PackedWordMemory,
                                  InjectedBitFault>
        scratch;
    for (const ArmStep& step : rearm_sequence(a, b, a1)) {
        PackedWordMemory& armed =
            scratch.arm(*step.chunk, step.words, step.width);
        ASSERT_EQ(armed.words(), step.words) << step.label;
        ASSERT_EQ(armed.width(), step.width) << step.label;
        expect_armed_matches_fresh(armed, *step.chunk, step.words,
                                   step.width, rng, step.label);
        if (HasFatalFailure()) return;
    }
}

/// The same sequence through the word kernels' own thread-local scratch,
/// at every block width on a serial pool: guaranteed traces must match
/// the scalar oracle after every re-arm.
TEST(PassScratch, BatchTracesMatchScalarOracleAcrossReArms) {
    SplitMix64 rng(0x5C4A7CULL);
    const auto a = random_chunk(rng);
    const auto b = random_chunk(rng);
    const auto a1 = change_one_fault(a);
    const auto& test = march::mats_plus_plus();
    util::ThreadPool serial(1);
    for (int lane_width : {1, 4, 8}) {
        for (const ArmStep& step : rearm_sequence(a, b, a1)) {
            WordRunOptions opts;
            opts.words = step.words;
            opts.width = step.width;
            const auto backgrounds = counting_backgrounds(step.width);
            const WordBatchRunner runner(test, backgrounds, opts, &serial,
                                         lane_width);
            const auto& population = *step.chunk;
            const auto traces = runner.run(population);
            ASSERT_EQ(traces.size(), population.size());
            for (std::size_t i = 0; i < population.size(); ++i)
                expect_trace_eq(
                    traces[i],
                    guaranteed_trace(test, backgrounds, population[i], opts),
                    step.label, population[i].kind, i);
            if (HasFatalFailure()) return;
        }
    }
}

}  // namespace
}  // namespace mtg::word
