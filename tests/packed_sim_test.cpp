/// Randomized differential test of the bit universe on the one packed
/// kernel: the width-1 word memory (cell c = word c, bit 0) must behave
/// lane for lane like a scalar SimMemory carrying the same injected fault,
/// over random operation sequences, for every FaultKind — the scalar bit
/// simulator is the ground-truth oracle. Engine bit queries on the packed
/// backend must reproduce the scalar verdicts and guaranteed traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/expansion.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "sim/lane_dispatch.hpp"
#include "sim/march_runner.hpp"
#include "sim/pass_scratch.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "word/packed_word_memory.hpp"

namespace mtg::sim {
namespace {

using fault::FaultKind;

constexpr int kCells = 6;

/// The packed memory the bit universe runs on: width 1 fixed at compile
/// time, one plane word per lane block.
using BitMemory = word::PackedWordMemoryT<LaneMask, 1>;

/// Cell c of the bit memory is bit 0 of word c.
word::InjectedBitFault at_width_one(const InjectedFault& fault) {
    return {fault.kind, {fault.cell_a, 0}, {fault.cell_b, 0}};
}

/// One packed read of cell `addr`.
BitMemory::ReadResult read_cell(BitMemory& memory, int addr) {
    BitMemory::ReadResult got;
    memory.read(addr, &got);
    return got;
}

Trit peek_cell(const BitMemory& memory, int addr, int lane) {
    return memory.peek({addr, 0}, lane);
}

/// Random placement of `kind` on a `cells`-cell memory.
InjectedFault random_placement(FaultKind kind, SplitMix64& rng,
                               int cells = kCells) {
    if (!fault::is_two_cell(kind))
        return InjectedFault::single(kind, rng.range(0, cells - 1));
    const int a = rng.range(0, cells - 1);
    int v = rng.range(0, cells - 2);
    if (v >= a) ++v;
    return InjectedFault::coupling(kind, a, v);
}

/// Drives scalar and packed memories through the same random op sequence
/// and checks the read results and full cell state after every operation.
/// Passing nullptr exercises the fault-free path (nothing injected).
void run_differential(const InjectedFault* fault, SplitMix64& rng, int lane,
                      int ops) {
    SimMemory scalar(kCells);
    BitMemory packed(kCells, 1);
    if (fault) {
        scalar.inject(*fault);
        packed.inject(at_width_one(*fault), LaneMask{1} << lane);
    }
    const std::string label =
        fault ? fault_kind_name(fault->kind) : "fault-free";

    for (int step = 0; step < ops; ++step) {
        const int choice = rng.range(0, 9);
        const int addr = rng.range(0, kCells - 1);
        if (choice < 5) {
            const int d = rng.coin() ? 1 : 0;
            scalar.write(addr, d);
            packed.write(addr, d);
        } else if (choice < 9) {
            const Trit expected = scalar.read(addr);
            const auto got = read_cell(packed, addr);
            const bool known = (got.known >> lane) & 1u;
            ASSERT_EQ(known, is_known(expected))
                << "read @" << addr << " step " << step << " fault "
                << label;
            if (known) {
                ASSERT_EQ(static_cast<int>((got.value >> lane) & 1u),
                          trit_bit(expected))
                    << "read @" << addr << " step " << step << " fault "
                    << label;
            }
        } else {
            scalar.wait();
            packed.wait();
        }
        for (int c = 0; c < kCells; ++c)
            ASSERT_EQ(peek_cell(packed, c, lane), scalar.peek(c))
                << "cell " << c << " step " << step << " fault "
                << label;
    }
}

TEST(PackedSimDifferential, EveryFaultKindMatchesScalarOracle) {
    SplitMix64 rng(0xBE50C0DEULL);
    for (FaultKind kind : fault::all_fault_kinds()) {
        for (int trial = 0; trial < 25; ++trial) {
            const InjectedFault fault = random_placement(kind, rng);
            const int lane = rng.range(0, kLaneCount - 1);
            run_differential(&fault, rng, lane, 60);
            if (HasFatalFailure()) return;
        }
    }
}

TEST(PackedSimDifferential, FaultFreeLaneMatchesFaultFreeScalar) {
    SplitMix64 rng(7u);
    // No injection at all: every lane must behave like the fault-free
    // scalar memory (lane 0 is the conventional reference lane).
    run_differential(nullptr, rng, 0, 80);
}

TEST(PackedSim, SixtyThreeLanesRunIndependently) {
    SplitMix64 rng(0x5EEDULL);
    std::vector<InjectedFault> faults;
    std::vector<SimMemory> scalars;
    BitMemory packed(kCells, 1);
    const auto& kinds = fault::all_fault_kinds();
    for (int lane = 1; lane < kLaneCount; ++lane) {
        const FaultKind kind =
            kinds[static_cast<std::size_t>(rng.below(kinds.size()))];
        faults.push_back(random_placement(kind, rng));
        scalars.emplace_back(kCells);
        scalars.back().inject(faults.back());
        packed.inject(at_width_one(faults.back()), LaneMask{1} << lane);
    }
    SimMemory reference(kCells);  // lane 0

    for (int step = 0; step < 200; ++step) {
        const int choice = rng.range(0, 9);
        const int addr = rng.range(0, kCells - 1);
        if (choice < 5) {
            const int d = rng.coin() ? 1 : 0;
            reference.write(addr, d);
            for (auto& s : scalars) s.write(addr, d);
            packed.write(addr, d);
        } else if (choice < 9) {
            const Trit ref = reference.read(addr);
            const auto got = read_cell(packed, addr);
            ASSERT_EQ(((got.known >> 0) & 1u) != 0, is_known(ref));
            for (int lane = 1; lane < kLaneCount; ++lane) {
                const Trit expected = scalars[static_cast<std::size_t>(
                                                  lane - 1)]
                                          .read(addr);
                const bool known = (got.known >> lane) & 1u;
                ASSERT_EQ(known, is_known(expected)) << "lane " << lane;
                if (known) {
                    ASSERT_EQ(static_cast<int>((got.value >> lane) & 1u),
                              trit_bit(expected))
                        << "lane " << lane;
                }
            }
        } else {
            reference.wait();
            for (auto& s : scalars) s.wait();
            packed.wait();
        }
    }
    for (int c = 0; c < kCells; ++c) {
        ASSERT_EQ(peek_cell(packed, c, 0), reference.peek(c));
        for (int lane = 1; lane < kLaneCount; ++lane)
            ASSERT_EQ(peek_cell(packed, c, lane),
                      scalars[static_cast<std::size_t>(lane - 1)].peek(c))
                << "cell " << c << " lane " << lane;
    }
}

TEST(PackedSim, RejectsTwoFaultsInOneLane) {
    BitMemory packed(4, 1);
    packed.inject(at_width_one(InjectedFault::single(FaultKind::Saf0, 1)),
                  0b10);
    EXPECT_THROW(
        packed.inject(at_width_one(InjectedFault::single(FaultKind::Saf1, 2)),
                      0b110),
        ContractViolation);
}

TEST(PackedSim, WidthOneInstantiationRejectsOtherWidths) {
    EXPECT_THROW(BitMemory(4, 2), ContractViolation);
    BitMemory packed(4, 1);
    EXPECT_THROW(packed.reset(4, 8), ContractViolation);
}

/// Scalar-oracle recomputation of the guaranteed failing reads: intersects
/// run_once traces over every ⇕ expansion, then sorts into the canonical
/// textual order the batched runner reports.
std::vector<ReadSite> scalar_guaranteed_reads(const march::MarchTest& test,
                                              const InjectedFault& fault,
                                              const RunOptions& opts) {
    std::vector<ReadSite> guaranteed;
    bool first = true;
    for (unsigned choice : expansion_choices(test, opts)) {
        const RunTrace trace = run_once(test, {fault}, choice, opts);
        if (first) {
            guaranteed = trace.failing_reads;
            first = false;
        } else {
            std::erase_if(guaranteed, [&](const ReadSite& site) {
                return std::find(trace.failing_reads.begin(),
                                 trace.failing_reads.end(),
                                 site) == trace.failing_reads.end();
            });
        }
    }
    std::sort(guaranteed.begin(), guaranteed.end(),
              [](const ReadSite& a, const ReadSite& b) {
                  return a.element != b.element ? a.element < b.element
                                                : a.op < b.op;
              });
    return guaranteed;
}

/// Scalar-oracle recomputation of the guaranteed failing observations:
/// intersects run_once (site, cell) observations over every ⇕ expansion,
/// sorted into the canonical textual-site-then-ascending-cell order the
/// batched runner reports.
std::vector<Observation> scalar_guaranteed_observations(
    const march::MarchTest& test, const InjectedFault& fault,
    const RunOptions& opts) {
    std::vector<Observation> guaranteed;
    bool first = true;
    for (unsigned choice : expansion_choices(test, opts)) {
        const RunTrace trace = run_once(test, {fault}, choice, opts);
        if (first) {
            guaranteed = trace.failing_observations;
            first = false;
        } else {
            std::erase_if(guaranteed, [&](const Observation& obs) {
                return std::find(trace.failing_observations.begin(),
                                 trace.failing_observations.end(),
                                 obs) == trace.failing_observations.end();
            });
        }
    }
    std::sort(guaranteed.begin(), guaranteed.end(),
              [](const Observation& a, const Observation& b) {
                  if (a.site.element != b.site.element)
                      return a.site.element < b.site.element;
                  if (a.site.op != b.site.op) return a.site.op < b.site.op;
                  return a.cell < b.cell;
              });
    return guaranteed;
}

/// The detects-all verdict of an explicit population on `session`.
bool detects_all(const engine::Engine& session, const march::MarchTest& test,
                 const std::vector<InjectedFault>& population,
                 const RunOptions& opts) {
    engine::Query query;
    query.test = test;
    query.universe = engine::BitUniverse{opts};
    query.want = engine::Want::DetectsAll;
    query.bit_faults = population;
    return session.run(query).all;
}

/// Packed bit queries must reproduce the scalar detects() verdict and the
/// guaranteed failing reads/observations (as sets) for whole populations.
TEST(PackedBitQueries, MatchScalarSweepOnLibraryTests) {
    const RunOptions opts{.memory_size = 5, .max_any_expansion = 6};
    const engine::Engine session;
    for (const char* name : {"MATS", "MATS++", "March C-", "March SS"}) {
        const auto& test = march::find_march_test(name).test;
        for (FaultKind kind : fault::all_fault_kinds()) {
            const auto population = full_population(kind, opts.memory_size);
            const auto batched = session.detects(test, population, opts);
            const auto traces = session.traces(test, population, opts);
            ASSERT_EQ(batched.size(), population.size());
            for (std::size_t i = 0; i < population.size(); ++i) {
                const bool scalar = detects(test, population[i], opts);
                ASSERT_EQ(batched[i], scalar)
                    << name << ' ' << fault_kind_name(kind) << " placement "
                    << i;
                ASSERT_EQ(traces[i].detected, scalar);

                ASSERT_EQ(traces[i].failing_reads,
                          scalar_guaranteed_reads(test, population[i], opts))
                    << name << ' ' << fault_kind_name(kind);
                ASSERT_EQ(traces[i].failing_observations,
                          scalar_guaranteed_observations(test, population[i],
                                                         opts))
                    << name << ' ' << fault_kind_name(kind);
            }
        }
    }
}

TEST(PackedBitQueries, PopulationsLargerThanOneChunk) {
    // 12 cells -> 132 ordered pairs: three packed chunks at W=1.
    const RunOptions opts{.memory_size = 12, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const auto population =
        full_population(FaultKind::CfidUp0, opts.memory_size);
    ASSERT_GT(population.size(), 2u * 63u);
    const engine::Engine session(engine::EngineConfig{.lane_width = 1});
    const auto batched = session.detects(test, population, opts);
    for (std::size_t i = 0; i < population.size(); ++i)
        ASSERT_TRUE(batched[i]) << i;
    EXPECT_TRUE(session.covers_everywhere(test, FaultKind::CfidUp0, opts));
}

TEST(FullPopulation, EnumeratesPlacements) {
    EXPECT_EQ(full_population(FaultKind::Saf0, 8).size(), 8u);
    EXPECT_EQ(full_population(FaultKind::CfidUp0, 8).size(), 56u);
}

TEST(FullPopulation, DegenerateMemoriesYieldEmptyPopulations) {
    // n=1 has no ordered cell pair, so the two-cell population is
    // mathematically empty; n=0 has nothing at all — neither may crash.
    EXPECT_TRUE(full_population(FaultKind::CfidUp0, 1).empty());
    EXPECT_EQ(full_population(FaultKind::Saf0, 1).size(), 1u);
    EXPECT_TRUE(full_population(FaultKind::CfidUp0, 0).empty());
    EXPECT_TRUE(full_population(FaultKind::Saf0, 0).empty());
}

TEST(PackedSim, ResetReuseMatchesFreshMemory) {
    // A reset() memory (how the batch kernels' scratch re-arms) must
    // behave exactly like a freshly constructed one, across a geometry
    // change and a different fault population.
    SplitMix64 rng(0x4E5E7ULL);
    BitMemory reused(4, 1);
    reused.inject(
        at_width_one(InjectedFault::coupling(FaultKind::CfidUp1, 0, 3)),
        LaneMask{1} << 7);
    reused.inject(at_width_one(InjectedFault::single(FaultKind::Rdf0, 1)),
                  LaneMask{1} << 11);
    reused.write(0, 1);
    (void)read_cell(reused, 3);

    reused.reset(6, 1);
    BitMemory fresh(6, 1);
    const auto fault =
        at_width_one(InjectedFault::coupling(FaultKind::CfstS1F0, 2, 4));
    reused.inject(fault, LaneMask{1} << 7);
    fresh.inject(fault, LaneMask{1} << 7);
    for (int step = 0; step < 60; ++step) {
        const int cell = rng.range(0, 5);
        const int choice = rng.range(0, 9);
        if (choice < 5) {
            const int d = rng.range(0, 1);
            reused.write(cell, d);
            fresh.write(cell, d);
        } else if (choice < 9) {
            const auto a = read_cell(reused, cell);
            const auto b = read_cell(fresh, cell);
            ASSERT_EQ(a.value, b.value) << "step " << step;
            ASSERT_EQ(a.known, b.known) << "step " << step;
        } else {
            reused.wait();
            fresh.wait();
        }
        for (int c = 0; c < 6; ++c)
            ASSERT_EQ(peek_cell(reused, c, 7), peek_cell(fresh, c, 7))
                << "cell " << c << " step " << step;
    }
}

TEST(PackedBitQueries, EmptyPopulationIsTriviallyCovered) {
    const RunOptions opts{.memory_size = 1, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const engine::Engine session;
    const auto empty = full_population(FaultKind::CfidUp0, 1);
    EXPECT_TRUE(detects_all(session, test, empty, opts));
    EXPECT_TRUE(session.detects(test, empty, opts).empty());
    EXPECT_TRUE(session.traces(test, empty, opts).empty());
    // covers_everywhere on the degenerate memory: vacuously true for
    // two-cell kinds, still meaningful for single-cell kinds.
    EXPECT_TRUE(session.covers_everywhere(march::march_c_minus(),
                                          FaultKind::CfidUp0, opts));
    EXPECT_TRUE(session.covers_everywhere(march::march_c_minus(),
                                          FaultKind::Saf0, opts));
}

// ---- armed pass scratch ----------------------------------------------------

/// One full chunk of random placements (every fault kind in turn) on a
/// `cells`-cell memory.
std::vector<InjectedFault> random_chunk(SplitMix64& rng, int cells) {
    const auto& kinds = fault::all_fault_kinds();
    std::vector<InjectedFault> chunk;
    for (int i = 0; i < kChunkLanes; ++i)
        chunk.push_back(random_placement(
            kinds[static_cast<std::size_t>(i) % kinds.size()], rng, cells));
    return chunk;
}

/// The re-arm sequence both scratch tests replay: the same chunk twice,
/// two equal-size chunks interleaved A -> B -> A, a chunk that differs
/// from A in one fault, the same chunk on a larger memory (a geometry
/// change with equal content), and back.
struct ArmStep {
    const char* label;
    const std::vector<InjectedFault>* chunk;
    int cells;
};

std::vector<ArmStep> rearm_sequence(const std::vector<InjectedFault>& a,
                                    const std::vector<InjectedFault>& b,
                                    const std::vector<InjectedFault>& a1) {
    return {{"A", &a, kCells},        {"A again", &a, kCells},
            {"B", &b, kCells},        {"A after B", &a, kCells},
            {"A one fault changed", &a1, kCells},
            {"A on a larger memory", &a, kCells + 2},
            {"A back", &a, kCells}};
}

/// A with the fault in one lane replaced by a different one.
std::vector<InjectedFault> change_one_fault(std::vector<InjectedFault> a) {
    InjectedFault& f = a[31];
    f = InjectedFault::single(
        f.kind == FaultKind::Saf0 ? FaultKind::Saf1 : FaultKind::Saf0,
        f.cell_a);
    return a;
}

/// Drives `armed` (as just handed out for `chunk`), a freshly constructed
/// memory holding the same chunk and one scalar SimMemory per fault
/// through one random op sequence: every read must agree between the two
/// packed memories block for block and with the oracle lane for lane.
void expect_armed_matches_fresh(BitMemory& armed,
                                const std::vector<InjectedFault>& chunk,
                                int cells, SplitMix64& rng,
                                const char* label) {
    BitMemory fresh(cells, 1);
    std::vector<SimMemory> oracle;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
        fresh.inject(at_width_one(chunk[i]),
                     LaneMask{1} << fault_lane(static_cast<int>(i)));
        oracle.emplace_back(cells);
        oracle.back().inject(chunk[i]);
    }
    for (int step = 0; step < 80; ++step) {
        const int choice = rng.range(0, 9);
        const int addr = rng.range(0, cells - 1);
        if (choice < 5) {
            const int d = rng.coin() ? 1 : 0;
            armed.write(addr, d);
            fresh.write(addr, d);
            for (SimMemory& m : oracle) m.write(addr, d);
        } else if (choice < 9) {
            const auto got = read_cell(armed, addr);
            const auto want = read_cell(fresh, addr);
            ASSERT_EQ(got.value, want.value) << label << " step " << step;
            ASSERT_EQ(got.known, want.known) << label << " step " << step;
            for (std::size_t i = 0; i < oracle.size(); ++i) {
                const Trit expected = oracle[i].read(addr);
                const int lane = fault_lane(static_cast<int>(i));
                ASSERT_EQ(((got.known >> lane) & 1u) != 0,
                          is_known(expected))
                    << label << " step " << step << " fault " << i;
                if (is_known(expected)) {
                    ASSERT_EQ(static_cast<int>((got.value >> lane) & 1u),
                              trit_bit(expected))
                        << label << " step " << step << " fault " << i;
                }
            }
        } else {
            armed.wait();
            fresh.wait();
            for (SimMemory& m : oracle) m.wait();
        }
    }
}

TEST(PassScratch, RearmMatchesFreshMemoryAndScalarOracle) {
    SplitMix64 rng(0xA53EDULL);
    const auto a = random_chunk(rng, kCells);
    const auto b = random_chunk(rng, kCells);
    const auto a1 = change_one_fault(a);
    ASSERT_NE(a1, a);
    detail::ArmedPassScratch<LaneMask, BitMemory, word::InjectedBitFault>
        scratch;
    for (const ArmStep& step : rearm_sequence(a, b, a1)) {
        std::vector<word::InjectedBitFault> chunk;
        for (const InjectedFault& fault : *step.chunk)
            chunk.push_back(at_width_one(fault));
        BitMemory& armed = scratch.arm(chunk, step.cells, 1);
        ASSERT_EQ(armed.words(), step.cells) << step.label;
        expect_armed_matches_fresh(armed, *step.chunk, step.cells, rng,
                                   step.label);
        if (HasFatalFailure()) return;
    }
}

/// The same sequence through the packed kernel's own thread-local scratch
/// (Engine bit queries on a serial pool), at every block width: detection
/// flags and guaranteed traces must match the scalar oracle after every
/// re-arm.
TEST(PassScratch, BatchPassesMatchScalarOracleAcrossReArms) {
    SplitMix64 rng(0x5C4A7CULL);
    const auto a = random_chunk(rng, kCells);
    const auto b = random_chunk(rng, kCells);
    const auto a1 = change_one_fault(a);
    util::ThreadPool serial(1);
    for (int width : {1, 4, 8}) {
        for (const ArmStep& step : rearm_sequence(a, b, a1)) {
            const RunOptions opts{.memory_size = step.cells,
                                  .max_any_expansion = 6};
            const auto& test = march::march_c_minus();
            const engine::Engine session(
                engine::EngineConfig{.pool = &serial, .lane_width = width});
            const auto& population = *step.chunk;
            const auto flags = session.detects(test, population, opts);
            const auto traces = session.traces(test, population, opts);
            for (std::size_t i = 0; i < population.size(); ++i) {
                const bool scalar = detects(test, population[i], opts);
                ASSERT_EQ(flags[i], scalar)
                    << step.label << " W" << width << " fault " << i;
                ASSERT_EQ(traces[i].detected, scalar);
                ASSERT_EQ(traces[i].failing_reads,
                          scalar_guaranteed_reads(test, population[i], opts))
                    << step.label << " W" << width << " fault " << i;
                ASSERT_EQ(traces[i].failing_observations,
                          scalar_guaranteed_observations(test, population[i],
                                                         opts))
                    << step.label << " W" << width << " fault " << i;
            }
            EXPECT_EQ(detects_all(session, test, population, opts),
                      std::all_of(flags.begin(), flags.end(),
                                  [](bool f) { return f; }))
                << step.label << " W" << width;
        }
    }
}


// ---- ⇕ expansion tree ------------------------------------------------------
//
// One pass walks every ⇕ choice of a chunk as a depth-first tree: at a
// branch point it snapshots the value/known planes, the path's mismatch
// mask and the trace marks, runs the element ascending down to a leaf,
// then restores them and runs it descending (word/word_kernels.hpp). The
// cases below put branch points where a lost plane, mask or mark changes
// a verdict or a trace, on populations that mix every fault kind in one
// chunk.

/// Every placement of every fault kind on an n-cell memory.
std::vector<InjectedFault> all_kinds_population(int cells) {
    std::vector<InjectedFault> population;
    for (FaultKind kind : fault::all_fault_kinds())
        for (const InjectedFault& fault : full_population(kind, cells))
            population.push_back(fault);
    return population;
}

/// Detects, DetectsAll and Traces of `population` on sessions of lane
/// widths 1, 4 and 8 against the scalar SimMemory oracle. DetectsAll is
/// also asked of the detected faults alone, so that a walk with no escape
/// runs to its last leaf.
void expect_tree_matches_scalar(const std::string& label,
                                const march::MarchTest& test,
                                const std::vector<InjectedFault>& population,
                                const RunOptions& opts) {
    std::vector<bool> want(population.size());
    std::vector<InjectedFault> detected;
    std::vector<std::vector<ReadSite>> want_reads;
    std::vector<std::vector<Observation>> want_observations;
    for (std::size_t i = 0; i < population.size(); ++i) {
        want[i] = detects(test, population[i], opts);
        if (want[i]) detected.push_back(population[i]);
        want_reads.push_back(
            scalar_guaranteed_reads(test, population[i], opts));
        want_observations.push_back(
            scalar_guaranteed_observations(test, population[i], opts));
    }
    ASSERT_FALSE(detected.empty()) << label;
    const bool want_all = detected.size() == population.size();
    for (int width : {1, 4, 8}) {
        const engine::Engine session(
            engine::EngineConfig{.lane_width = width});
        const std::string where = label + " W" + std::to_string(width);
        EXPECT_EQ(session.detects(test, population, opts), want) << where;
        EXPECT_EQ(detects_all(session, test, population, opts), want_all)
            << where;
        EXPECT_TRUE(detects_all(session, test, detected, opts)) << where;
        const auto traces = session.traces(test, population, opts);
        ASSERT_EQ(traces.size(), population.size()) << where;
        for (std::size_t i = 0; i < population.size(); ++i) {
            ASSERT_EQ(traces[i].detected, want[i]) << where << " #" << i;
            ASSERT_EQ(traces[i].failing_reads, want_reads[i])
                << where << " #" << i << ' '
                << fault_kind_name(population[i].kind);
            ASSERT_EQ(traces[i].failing_observations, want_observations[i])
                << where << " #" << i << ' '
                << fault_kind_name(population[i].kind);
        }
    }
}

/// ⇕ elements first, in the middle and last, alone and together: a
/// branch point at the first element snapshots all-X planes, later ones
/// snapshot known cells, and one at the last element has no later
/// element to hide a lost restore.
TEST(ExpansionTree, BranchPointsFirstMiddleAndLast) {
    const RunOptions opts{.memory_size = 5, .max_any_expansion = 6};
    const auto population = all_kinds_population(opts.memory_size);
    for (const char* text :
         {"{~(w0); ^(r0,w1); v(r1,w0); ^(r0)}",
          "{^(w0); ^(r0,w1); ~(r1,w0); v(r0,w1); ^(r1)}",
          "{^(w1); v(r1,w0); ^(r0,w1); ~(r1,w0,r0)}",
          "{~(w0); ^(r0,w1); ~(r1,w0); v(r0,w1); ~(r1)}",
          "{~(w0); ^(r0,r0,w0,r0,w1); ^(r1,r1,w1,r1,w0); "
          "v(r0,r0,w0,r0,w1); v(r1,r1,w1,r1,w0); ~(r0)}"})
        expect_tree_matches_scalar(text, march::parse_march(text),
                                   population, opts);
}

/// Past max_any_expansion the choices are the two uniform sweeps, so the
/// first ⇕ element is the only branch point and the later ones follow it.
TEST(ExpansionTree, OverTheCapOnlyTheFirstAnyElementBranches) {
    const RunOptions opts{.memory_size = 5, .max_any_expansion = 2};
    const auto test =
        march::parse_march("{^(w0); ~(r0,w1); ~(r1,w0); ^(r0,w1); ~(r1)}");
    ASSERT_EQ(march::any_order_count(test), opts.max_any_expansion + 1);
    expect_tree_matches_scalar("k = cap + 1", test,
                               all_kinds_population(opts.memory_size), opts);
}

/// MATS+Del's ⇕(del) elements branch although a wait is order-free; the
/// DRF lanes decay on them between the branch's two sides.
TEST(ExpansionTree, RetentionDelaysUnderAnyOrder) {
    const RunOptions opts{.memory_size = 6, .max_any_expansion = 6};
    expect_tree_matches_scalar("MATS+Del",
                               march::find_march_test("MATS+Del").test,
                               all_kinds_population(opts.memory_size), opts);
}

/// Six ⇕ elements give 64 choices, so a W=8 job of one chunk reaches
/// kZmmWorkItemThreshold and runs the zmm pass on an AVX-512F host.
TEST(ExpansionTree, ZmmSizedJob) {
    const RunOptions opts{.memory_size = 5, .max_any_expansion = 6};
    const auto test = march::parse_march(
        "{~(w0); ~(r0,w1); ~(r1,w0); ~(r0,w1); ~(r1,w0); ~(r0,w1); ^(r1)}");
    const auto population = all_kinds_population(opts.memory_size);
    ASSERT_GE(block_chunk_total<LaneBlock<8>>(population.size()) *
                  expansion_choices(test, opts).size(),
              kZmmWorkItemThreshold);
    expect_tree_matches_scalar("zmm", test, population, opts);
}

}  // namespace
}  // namespace mtg::sim
