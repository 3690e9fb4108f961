/// The placement-class lemma (sim::class_population): a bit placement's
/// verdict and guaranteed trace are its class representative's, the trace
/// renamed onto the placement's cells. The scalar oracles are the
/// reference: every full_population placement of every kind, under every
/// library test and seeded random well-formed tests, on memories of 1 to
/// 9 cells. The packed kind queries, which simulate only the classes, must
/// then give every placement's answer, and a kind population must not
/// grow with the memory size.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "engine/engine.hpp"
#include "fault/fault_list.hpp"
#include "fault/instance.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "sim/march_runner.hpp"
#include "util/rng.hpp"

namespace mtg {
namespace {

using engine::BackendKind;
using engine::BitUniverse;
using engine::Engine;
using engine::EngineConfig;
using engine::Query;
using engine::Want;
using fault::FaultKind;
using march::AddressOrder;
using march::MarchOp;

constexpr int kMemorySizes[] = {1, 2, 3, 4, 7, 9};

struct NamedTest {
    std::string name;
    march::MarchTest test;
};

/// A seeded random well-formed test: an opening write, then ops that read
/// the value last written, write either value, or wait. Every element
/// applies the same ops to every cell, so one running value decides what
/// each read must expect. `any_elements` > 0 forces that many elements,
/// all ⇕.
march::MarchTest random_test(std::uint64_t seed, int any_elements = 0) {
    SplitMix64 rng(seed);
    const int elements = any_elements > 0 ? any_elements : rng.range(2, 6);
    std::vector<march::MarchElement> out;
    int value = rng.range(0, 1);
    for (int e = 0; e < elements; ++e) {
        std::vector<MarchOp> ops;
        if (e == 0) ops.push_back(MarchOp::w(value));
        const int extra = rng.range(e == 0 ? 0 : 1, 3);
        for (int o = 0; o < extra; ++o) {
            switch (rng.range(0, 4)) {
                case 0:
                case 1: ops.push_back(MarchOp::r(value)); break;
                case 2:
                case 3:
                    value = rng.range(0, 1);
                    ops.push_back(MarchOp::w(value));
                    break;
                default: ops.push_back(MarchOp::del()); break;
            }
        }
        const AddressOrder order =
            any_elements > 0 ? AddressOrder::Any
                             : static_cast<AddressOrder>(rng.range(0, 2));
        out.emplace_back(order, std::move(ops));
    }
    return march::MarchTest(std::move(out));
}

/// Every library test, eight seeded random well-formed tests, and one
/// with more ⇕ elements than max_any_expansion (so only the two uniform
/// expansions run).
const std::vector<NamedTest>& inputs() {
    static const std::vector<NamedTest> tests = [] {
        std::vector<NamedTest> out;
        for (const auto& named : march::known_march_tests())
            out.push_back({named.name, named.test});
        for (std::uint64_t seed = 1; seed <= 8; ++seed)
            out.push_back({"random " + std::to_string(seed),
                           random_test(seed)});
        const int any_elements = sim::RunOptions{}.max_any_expansion + 2;
        out.push_back({"all-⇕", random_test(99, any_elements)});
        return out;
    }();
    return tests;
}

/// The class of a placement on an n-cell memory, as the lemma in
/// sim/march_runner.hpp defines it: the aggressor's side of the victim for
/// a two-cell kind; whether the cell is the first or the last one for a
/// retention kind; nothing else.
std::tuple<FaultKind, int, int> class_key(const sim::InjectedFault& fault,
                                          int n) {
    if (fault.cell_b >= 0)
        return {fault.kind, fault.cell_a < fault.cell_b ? 0 : 1, 0};
    if (fault::needs_wait(fault.kind))
        return {fault.kind, fault.cell_a == 0 ? 1 : 0,
                fault.cell_a == n - 1 ? 1 : 0};
    return {fault.kind, 0, 0};
}

/// Index of `fault`'s class representative in `classes` (one kind's class
/// population), or classes.size() when no representative has its class.
std::size_t class_of(const sim::InjectedFault& fault,
                     std::span<const sim::InjectedFault> classes, int n) {
    for (std::size_t c = 0; c < classes.size(); ++c)
        if (class_key(classes[c], n) == class_key(fault, n)) return c;
    return classes.size();
}

/// `trace` (the representative `from`'s) renamed onto `to`'s cells, in
/// the canonical order (textual site order, ascending cell). An
/// observation outside `from`'s cells has no name in `to` and gets cell
/// -1, which no member trace holds.
sim::RunTrace renamed(sim::RunTrace trace, const sim::InjectedFault& from,
                      const sim::InjectedFault& to) {
    for (sim::Observation& obs : trace.failing_observations)
        obs.cell = obs.cell == from.cell_a   ? to.cell_a
                   : obs.cell == from.cell_b ? to.cell_b
                                             : -1;
    std::stable_sort(trace.failing_observations.begin(),
                     trace.failing_observations.end(),
                     [](const sim::Observation& a, const sim::Observation& b) {
                         return std::tie(a.site.element, a.site.op, a.cell) <
                                std::tie(b.site.element, b.site.op, b.cell);
                     });
    return trace;
}

TEST(ClassPopulation, InputsAreWellFormed) {
    for (const NamedTest& named : inputs())
        EXPECT_TRUE(sim::is_well_formed(named.test)) << named.name;
    const march::MarchTest& any_heavy = inputs().back().test;
    EXPECT_EQ(sim::expansion_choices(any_heavy).size(), 2u);
}

TEST(ClassPopulation, OnePlacementPerClassAtTheDictionarySlots) {
    for (const FaultKind kind : fault::all_fault_kinds()) {
        EXPECT_TRUE(sim::class_population(kind, 0).empty());
        EXPECT_TRUE(sim::class_population(kind, -1).empty());
        for (const int n : kMemorySizes) {
            // Exactly one representative per class of the full population.
            const auto classes = sim::class_population(kind, n);
            std::set<std::tuple<FaultKind, int, int>> keys;
            for (const sim::InjectedFault& fault : classes)
                EXPECT_TRUE(keys.insert(class_key(fault, n)).second);
            std::set<std::tuple<FaultKind, int, int>> member_keys;
            for (const sim::InjectedFault& fault :
                 sim::full_population(kind, n))
                member_keys.insert(class_key(fault, n));
            EXPECT_EQ(keys, member_keys)
                << fault::fault_kind_name(kind) << " n=" << n;
        }
        // The paper's instances at the dictionary slots; a retention kind
        // adds the first and the last cell around its slot.
        const int n = 1000;
        const auto classes = sim::class_population(kind, n);
        std::vector<sim::InjectedFault> placed;
        for (const fault::FaultInstance& instance : fault::instantiate({kind}))
            placed.push_back(sim::place_instance(instance, n));
        if (fault::needs_wait(kind))
            placed = {sim::InjectedFault::single(kind, 0), placed[0],
                      sim::InjectedFault::single(kind, n - 1)};
        EXPECT_EQ(classes, placed) << fault::fault_kind_name(kind);
    }
}

TEST(ClassPopulation, EveryPlacementHasItsClassVerdictAndRenamedTrace) {
    const Engine scalar(EngineConfig{.backend = BackendKind::Scalar});
    for (const NamedTest& named : inputs()) {
        for (const int n : kMemorySizes) {
            const sim::RunOptions opts{.memory_size = n};
            for (const FaultKind kind : fault::all_fault_kinds()) {
                const auto classes = sim::class_population(kind, n);
                const auto members = sim::full_population(kind, n);
                const auto class_traces =
                    scalar.traces(named.test, classes, opts);
                const auto member_traces =
                    scalar.traces(named.test, members, opts);
                for (std::size_t i = 0; i < members.size(); ++i) {
                    const std::size_t c = class_of(members[i], classes, n);
                    ASSERT_LT(c, classes.size());
                    const sim::RunTrace want =
                        renamed(class_traces[c], classes[c], members[i]);
                    const sim::RunTrace& got = member_traces[i];
                    const std::string where =
                        named.name + " × " + fault::fault_kind_name(kind) +
                        " n=" + std::to_string(n) + " placement (" +
                        std::to_string(members[i].cell_a) + "," +
                        std::to_string(members[i].cell_b) + ")";
                    ASSERT_EQ(got.detected, want.detected) << where;
                    ASSERT_EQ(got.failing_reads, want.failing_reads) << where;
                    ASSERT_EQ(got.failing_observations,
                              want.failing_observations)
                        << where;
                }
            }
        }
    }
}

TEST(ClassPopulation, KindQueriesAnswerForEveryPlacement) {
    // The packed kind query simulates the classes only; the explicit query
    // over every placement must agree with its answers broadcast per class.
    // Every Table 3 list, then every kind in one list.
    std::vector<fault::NamedFaultList> lists = fault::table3_fault_lists();
    fault::NamedFaultList every;
    every.name = "every kind";
    every.kinds = fault::all_fault_kinds();
    lists.push_back(std::move(every));
    const Engine eng;
    for (const NamedTest& named : inputs()) {
        for (const int n : kMemorySizes) {
            const sim::RunOptions opts{.memory_size = n};
            for (const auto& list : lists) {
                const std::string where = named.name + " × " + list.name +
                                          " n=" + std::to_string(n);
                Query query;
                query.test = named.test;
                query.universe = BitUniverse{opts};
                query.want = Want::Detects;
                query.kinds = list.kinds;
                const std::vector<bool> classes = eng.run(query).detected;
                const auto entry = eng.bit_population(list.kinds, n);
                ASSERT_EQ(classes.size(), entry->faults.size()) << where;

                bool all = true;
                for (std::size_t k = 0; k < entry->kinds.size(); ++k) {
                    const auto members =
                        sim::full_population(entry->kinds[k], n);
                    const std::vector<bool> verdicts =
                        eng.detects(named.test, members, opts);
                    const std::span<const sim::InjectedFault> kind_classes(
                        entry->faults.data() + entry->offsets[k],
                        entry->offsets[k + 1] - entry->offsets[k]);
                    bool kind_all = true;
                    for (std::size_t i = 0; i < members.size(); ++i) {
                        const std::size_t c =
                            class_of(members[i], kind_classes, n);
                        ASSERT_LT(c, kind_classes.size());
                        ASSERT_EQ(verdicts[i], classes[entry->offsets[k] + c])
                            << where << " "
                            << fault::fault_kind_name(entry->kinds[k]);
                        kind_all = kind_all && verdicts[i];
                    }
                    EXPECT_EQ(eng.covers_everywhere(named.test,
                                                    entry->kinds[k], opts),
                              kind_all)
                        << where << " "
                        << fault::fault_kind_name(entry->kinds[k]);
                    all = all && kind_all;
                }

                query.want = Want::DetectsAll;
                EXPECT_EQ(eng.run(query).all, all) << where;
                EXPECT_EQ(eng.covers_all(named.test, list.kinds, opts), all)
                    << where;
            }
        }
    }
}

TEST(ClassPopulation, AggressorOrderIsPartOfTheClass) {
    // Without the order component one representative per two-cell kind
    // would miss these escapes: at n = 8, 31 (library test, two-cell
    // kind) pairs detect one order but not the other.
    const sim::RunOptions opts{.memory_size = 8};
    int differing = 0;
    for (const auto& named : march::known_march_tests()) {
        for (const FaultKind kind : fault::all_fault_kinds()) {
            if (!fault::is_two_cell(kind)) continue;
            const auto classes = sim::class_population(kind, opts.memory_size);
            if (sim::detects(named.test, classes[0], opts) !=
                sim::detects(named.test, classes[1], opts))
                ++differing;
        }
    }
    EXPECT_EQ(differing, 31);

    const auto& mats_plus = march::find_march_test("MATS+").test;
    const auto cfin_down =
        sim::class_population(FaultKind::CfinDown, opts.memory_size);
    EXPECT_FALSE(sim::detects(mats_plus, cfin_down[0], opts));  // below
    EXPECT_TRUE(sim::detects(mats_plus, cfin_down[1], opts));   // above
}

TEST(ClassPopulation, RetentionCellsAtTheEndsAreClassesOfTheirOwn) {
    // A wait acts on every cell. In ⇑(del,w1) the last cell visited sees
    // no wait after its write, and every other cell does. So under
    // {⇕(w1); ⇕(del,w1); ⇕(r1)} DRF0 escapes at both end cells and is
    // detected in between: one representative cell would call it covered.
    const march::MarchTest test =
        march::parse_march("{~(w1); ~(del,w1); ~(r1)}");
    const sim::RunOptions opts{.memory_size = 8};
    for (int cell = 0; cell < opts.memory_size; ++cell)
        EXPECT_EQ(sim::detects(test,
                               sim::InjectedFault::single(FaultKind::Drf0, cell),
                               opts),
                  cell != 0 && cell != opts.memory_size - 1)
            << "cell " << cell;
    EXPECT_FALSE(Engine().covers_everywhere(test, FaultKind::Drf0, opts));
}

TEST(ClassPopulation, DoesNotGrowWithMemorySize) {
    // At n = 100,000 the full population would hold about 10^10 pairs per
    // two-cell kind; the class population holds 26 faults for the list.
    const Engine eng;
    const auto kinds = fault::parse_fault_kinds("SAF,TF,ADF,CFin,CFid,CFst");
    const sim::RunOptions opts{.memory_size = 100000};
    EXPECT_EQ(eng.bit_population(kinds, opts.memory_size)->faults.size(),
              26u);
    EXPECT_TRUE(eng.covers_all(march::march_c_minus(), kinds, opts));
    EXPECT_FALSE(eng.covers_all(march::march_x(), kinds, opts));
}

}  // namespace
}  // namespace mtg
