#include "core/generator.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/march_builder.hpp"
#include "core/rewrite.hpp"
#include "core/test_pattern_graph.hpp"
#include "engine/engine.hpp"
#include "sim/two_cell_sim.hpp"
#include "util/contracts.hpp"

namespace mtg::core {

using fault::FaultInstance;
using fault::FaultKind;
using fault::TestPattern;
using fault::TpClass;
using march::MarchTest;

namespace {

/// True when executing `covering` necessarily exercises `covered`:
/// identical E and O, and every initialisation constraint of `covered` is
/// enforced (not merely allowed) by `covering`.
bool tp_subsumes(const TestPattern& covering, const TestPattern& covered) {
    if (covering.excite != covered.excite) return false;
    if (covering.observe != covered.observe) return false;
    const auto enforced = [&](Trit need, Trit have) {
        return !is_known(need) || need == have;
    };
    return enforced(covered.init.i, covering.init.i) &&
           enforced(covered.init.j, covering.init.j);
}

/// Cheap subsumption prefilter key: tp_subsumes demands exact (E, O)
/// equality, so only TPs sharing this signature can ever subsume each
/// other. Packs the op kind/site/value of E (plus its presence) and O
/// into one int.
int tp_signature(const TestPattern& tp) {
    const auto op_bits = [](const fsm::AbstractOp& op) {
        return (static_cast<int>(op.kind) << 2) |
               (static_cast<int>(op.cell) << 1) |
               static_cast<int>(op.value != 0);
    };
    const int excite_bits =
        tp.excite.has_value() ? (1 << 4) | op_bits(*tp.excite) : 0;
    return (excite_bits << 4) | op_bits(tp.observe);
}

/// Simulator check: the March test covers every placement of the target
/// list — one fail-fast all-kind DetectsAll query. The Engine answers it
/// on the cached class population of (kinds, memory_size), which decides
/// every placement (sim::class_population states the lemma): a few dozen
/// faults at most, so one chunk, one pool work item that runs inline on
/// the calling thread.
bool march_valid(const MarchTest& test,
                 const std::vector<FaultKind>& kinds,
                 const sim::RunOptions& run) {
    if (test.empty()) return false;
    if (!sim::is_well_formed(test, run)) return false;
    return engine::Engine::global().covers_all(test, kinds, run);
}

/// Greedy deletion pass: removes single operations, then whole elements,
/// while the test remains valid. Guarantees block-level non-redundancy of
/// the final result.
MarchTest march_minimise_pass(MarchTest test,
                              const std::vector<FaultKind>& kinds,
                              const sim::RunOptions& run) {
    bool changed = true;
    while (changed) {
        changed = false;
        // Single-operation deletions.
        for (std::size_t e = 0; !changed && e < test.size(); ++e) {
            for (std::size_t o = 0; !changed && o < test[e].ops.size(); ++o) {
                std::vector<march::MarchElement> elements = test.elements();
                auto& ops = elements[e].ops;
                ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(o));
                if (ops.empty())
                    elements.erase(elements.begin() +
                                   static_cast<std::ptrdiff_t>(e));
                MarchTest candidate(elements);
                if (march_valid(candidate, kinds, run)) {
                    test = std::move(candidate);
                    changed = true;
                }
            }
        }
        // Whole-element deletions.
        for (std::size_t e = 0; e < test.size() && !changed; ++e) {
            std::vector<march::MarchElement> elements = test.elements();
            elements.erase(elements.begin() + static_cast<std::ptrdiff_t>(e));
            if (elements.empty()) continue;
            MarchTest candidate(elements);
            if (march_valid(candidate, kinds, run)) {
                test = std::move(candidate);
                changed = true;
            }
        }
    }
    return test;
}

/// Odometer over class alternative indices. Returns false when exhausted.
bool advance(std::vector<std::size_t>& digits,
             const std::vector<TpClass>& classes) {
    for (std::size_t k = 0; k < digits.size(); ++k) {
        if (++digits[k] < classes[k].alternatives.size()) return true;
        digits[k] = 0;
    }
    return false;
}

}  // namespace

std::string GenerationResult::summary() const {
    std::ostringstream os;
    os << test.str() << "  " << complexity << "n"
       << (valid ? "" : "  [INVALID]");
    return os.str();
}

Generator::Generator(GeneratorOptions options) : options_(std::move(options)) {}

GenerationResult Generator::generate_for(const std::string& list) const {
    return generate(fault::parse_fault_kinds(list));
}

GenerationResult Generator::generate(const std::vector<FaultKind>& kinds) const {
    if (kinds.empty()) throw std::invalid_argument("empty fault list");
    const auto t0 = std::chrono::steady_clock::now();

    GenerationResult result;

    // --- fault modelling: instances -> BFEs -> TPs + §5 classes ---------
    std::vector<TpClass> classes = fault::extract_tp_classes(kinds);

    // Mandatory TPs: alternatives of singleton classes.
    std::vector<TestPattern> mandatory;
    std::vector<FaultInstance> mandatory_instances;
    std::vector<TpClass> choice_classes;
    for (const TpClass& cls : classes) {
        MTG_ASSERT(!cls.alternatives.empty());
        if (cls.alternatives.size() == 1) {
            mandatory.push_back(cls.alternatives.front());
            mandatory_instances.push_back(cls.instance);
        } else {
            choice_classes.push_back(cls);
        }
    }

    // Cross-class dedup (reduces the §5 product): a choice class any of
    // whose alternatives is subsumed by a mandatory TP is already covered.
    if (options_.cross_class_dedup) {
        std::vector<TpClass> kept;
        for (const TpClass& cls : choice_classes) {
            bool covered = false;
            for (const TestPattern& alt : cls.alternatives) {
                for (const TestPattern& m : mandatory) {
                    if (tp_subsumes(m, alt)) {
                        covered = true;
                        break;
                    }
                }
                if (covered) break;
            }
            if (!covered) kept.push_back(cls);
        }
        choice_classes = std::move(kept);
        // Dedup mandatory TPs subsumed by other mandatory TPs. Subsumption
        // needs identical (E, O), so kept TPs are bucketed by that
        // signature and each candidate runs the full check only against
        // its own (typically tiny) bucket instead of every kept TP.
        std::vector<TestPattern> unique_mandatory;
        std::vector<FaultInstance> unique_instances;
        std::map<int, std::vector<std::size_t>> by_signature;
        for (std::size_t k = 0; k < mandatory.size(); ++k) {
            const int signature = tp_signature(mandatory[k]);
            auto& bucket = by_signature[signature];
            bool dup = false;
            for (const std::size_t m : bucket)
                if (tp_subsumes(unique_mandatory[m], mandatory[k])) {
                    dup = true;
                    break;
                }
            if (!dup) {
                bucket.push_back(unique_mandatory.size());
                unique_mandatory.push_back(mandatory[k]);
                unique_instances.push_back(mandatory_instances[k]);
            }
        }
        mandatory = std::move(unique_mandatory);
        mandatory_instances = std::move(unique_instances);
    }

    result.classes = classes;

    // The faulty machine of every fault instance of the target list (for
    // the GTS-level semantic gate of §4.2), built once per generation and
    // kept in move-to-front order: minimisation probes a chain of
    // shrinking candidates, and a candidate that drops a needed op keeps
    // failing on the same instance, so fronting the last failure makes
    // rejected probes fail on the first few gts_detects calls instead of
    // rescanning from instance 0. (Order never affects the gate's
    // verdict, only how fast a failure is found.)
    std::vector<fsm::MemoryFsm> probe_order;
    for (const FaultInstance& instance : fault::instantiate(kinds))
        probe_order.push_back(fault::faulty_machine(instance));

    // --- §5 enumeration over class alternatives -------------------------
    std::vector<std::size_t> digits(choice_classes.size(), 0);
    std::set<std::string> seen_tests;
    int combos = 0;
    bool have_best = false;

    auto consider_combination = [&](const std::vector<TestPattern>& tps,
                                    bool constrained) {
        TestPatternGraph tpg(tps);
        auto path = tpg.solve(constrained, &result.atsp_stats);
        if (!path) return;

        std::vector<TestPattern> chain;
        chain.reserve(path->order.size());
        for (int node : path->order)
            chain.push_back(tps[static_cast<std::size_t>(node)]);

        Gts raw = concatenate_tps(chain);
        Gts reordered = reorder(raw);
        const GtsValidator gate = [&](const Gts& g) {
            const auto ops = g.ops();
            if (!sim::gts_well_formed(ops)) return false;
            for (std::size_t i = 0; i < probe_order.size(); ++i)
                if (!sim::gts_detects(ops, probe_order[i])) {
                    // Move-to-front: the next shrinking probe almost
                    // always fails on the same instance.
                    std::rotate(probe_order.begin(),
                                probe_order.begin() +
                                    static_cast<std::ptrdiff_t>(i),
                                probe_order.begin() +
                                    static_cast<std::ptrdiff_t>(i + 1));
                    return false;
                }
            return true;
        };
        Gts minimised = gate(reordered) ? minimise(reordered, gate) : reordered;

        MarchTest synthesised = build_march(minimised);
        if (!seen_tests.insert(synthesised.str()).second) return;
        if (!march_valid(synthesised, kinds, options_.sim)) return;

        MarchTest final_test = synthesised;
        if (options_.march_minimise)
            final_test = march_minimise_pass(final_test, kinds, options_.sim);

        const int complexity = final_test.complexity();
        if (!have_best || complexity < result.complexity ||
            (complexity == result.complexity &&
             final_test.size() < result.test.size())) {
            have_best = true;
            result.test = final_test;
            result.test_unminimised = synthesised;
            result.complexity = complexity;
            result.valid = true;
            result.chain = chain;
            result.gts_raw = std::move(raw);
            result.gts_reordered = std::move(reordered);
            result.gts_minimised = std::move(minimised);
        }
    };

    while (true) {
        if (combos >= options_.max_class_combinations) break;
        ++combos;

        // Assemble the TP set for this combination, dropping duplicates.
        std::vector<TestPattern> tps = mandatory;
        for (std::size_t k = 0; k < choice_classes.size(); ++k) {
            const TestPattern& alt =
                choice_classes[k].alternatives[digits[k]];
            bool dup = false;
            for (const TestPattern& existing : tps)
                if (tp_subsumes(existing, alt)) {
                    dup = true;
                    break;
                }
            if (!dup) tps.push_back(alt);
        }
        MTG_ASSERT(!tps.empty());

        if (options_.constrain_start) consider_combination(tps, true);
        if (!options_.constrain_start || options_.try_both_start_modes)
            consider_combination(tps, false);

        if (choice_classes.empty() || !advance(digits, choice_classes)) break;
    }
    result.combinations_tried = combos;

    // --- §6 verdict ------------------------------------------------------
    if (result.valid)
        result.redundancy =
            setcover::analyse_redundancy(result.test, kinds, options_.sim);

    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return result;
}

}  // namespace mtg::core
