#include "sim/march_runner.hpp"

#include <algorithm>

#include "fault/instance.hpp"
#include "fault/placement.hpp"
#include "march/expansion.hpp"

namespace mtg::sim {

using march::AddressOrder;
using march::MarchOp;
using march::MarchTest;
using march::OpKind;

std::vector<ReadSite> read_sites(const MarchTest& test) {
    std::vector<ReadSite> sites;
    for (std::size_t e = 0; e < test.size(); ++e) {
        const auto& ops = test[e].ops;
        for (std::size_t o = 0; o < ops.size(); ++o)
            if (ops[o].kind == OpKind::Read)
                sites.push_back({static_cast<int>(e), static_cast<int>(o)});
    }
    return sites;
}

std::vector<std::vector<int>> read_site_ids(const MarchTest& test) {
    std::vector<std::vector<int>> ids(test.size());
    int next = 0;
    for (std::size_t e = 0; e < test.size(); ++e) {
        ids[e].assign(test[e].ops.size(), -1);
        for (std::size_t o = 0; o < test[e].ops.size(); ++o)
            if (test[e].ops[o].kind == OpKind::Read) ids[e][o] = next++;
    }
    return ids;
}

namespace {

/// Concrete visiting order for one element given the ⇕ choice bit.
bool runs_descending(AddressOrder order, bool any_desc) {
    if (order == AddressOrder::Descending) return true;
    if (order == AddressOrder::Ascending) return false;
    return any_desc;
}

}  // namespace

RunTrace run_once(const MarchTest& test, const std::vector<InjectedFault>& faults,
                  unsigned any_choices, const RunOptions& opts) {
    SimMemory memory(opts.memory_size);
    for (const auto& f : faults) memory.inject(f);

    RunTrace trace;
    int any_seen = 0;
    for (std::size_t e = 0; e < test.size(); ++e) {
        const auto& element = test[e];
        bool desc = false;
        if (element.order == AddressOrder::Any) {
            desc = runs_descending(element.order,
                                   march::any_descending(any_choices,
                                                         any_seen));
            ++any_seen;
        } else {
            desc = runs_descending(element.order, false);
        }

        const int n = memory.size();
        for (int step = 0; step < n; ++step) {
            const int cell = desc ? n - 1 - step : step;
            for (std::size_t o = 0; o < element.ops.size(); ++o) {
                const MarchOp& op = element.ops[o];
                switch (op.kind) {
                    case OpKind::Write:
                        memory.write(cell, op.value);
                        break;
                    case OpKind::Wait:
                        memory.wait();
                        break;
                    case OpKind::Read: {
                        const Trit got = memory.read(cell);
                        // An unknown value cannot be *guaranteed* to
                        // mismatch, so only definite mismatches detect.
                        if (is_known(got) && trit_bit(got) != op.value) {
                            trace.detected = true;
                            const ReadSite site{static_cast<int>(e),
                                                static_cast<int>(o)};
                            if (std::find(trace.failing_reads.begin(),
                                          trace.failing_reads.end(),
                                          site) == trace.failing_reads.end())
                                trace.failing_reads.push_back(site);
                            const Observation obs{site, cell};
                            if (std::find(trace.failing_observations.begin(),
                                          trace.failing_observations.end(),
                                          obs) ==
                                trace.failing_observations.end())
                                trace.failing_observations.push_back(obs);
                        }
                        break;
                    }
                }
            }
        }
    }
    return trace;
}

std::vector<unsigned> expansion_choices(const MarchTest& test,
                                        const RunOptions& opts) {
    return march::expansion_choices(test, opts.max_any_expansion);
}

bool detects(const MarchTest& test, const InjectedFault& fault,
             const RunOptions& opts) {
    for (unsigned choice : expansion_choices(test, opts)) {
        if (!run_once(test, {fault}, choice, opts).detected) return false;
    }
    return true;
}

bool is_well_formed(const MarchTest& test, const RunOptions& opts) {
    for (unsigned choice : expansion_choices(test, opts)) {
        SimMemory memory(opts.memory_size);
        int any_seen = 0;
        for (const auto& element : test.elements()) {
            bool desc = false;
            if (element.order == AddressOrder::Any) {
                desc = march::any_descending(choice, any_seen);
                ++any_seen;
            } else {
                desc = element.order == AddressOrder::Descending;
            }
            const int n = memory.size();
            for (int step = 0; step < n; ++step) {
                const int cell = desc ? n - 1 - step : step;
                for (const MarchOp& op : element.ops) {
                    switch (op.kind) {
                        case OpKind::Write: memory.write(cell, op.value); break;
                        case OpKind::Wait: memory.wait(); break;
                        case OpKind::Read: {
                            const Trit got = memory.read(cell);
                            if (!is_known(got) || trit_bit(got) != op.value)
                                return false;
                            break;
                        }
                    }
                }
            }
        }
    }
    return true;
}

std::vector<InjectedFault> full_population(fault::FaultKind kind,
                                           int memory_size) {
    std::vector<InjectedFault> population;
    if (memory_size <= 0) return population;
    if (fault::is_two_cell(kind)) {
        if (memory_size < 2) return population;  // no ordered pair exists
        population.reserve(static_cast<std::size_t>(memory_size) *
                           static_cast<std::size_t>(memory_size - 1));
        for (int a = 0; a < memory_size; ++a)
            for (int v = 0; v < memory_size; ++v)
                if (a != v)
                    population.push_back(InjectedFault::coupling(kind, a, v));
    } else {
        population.reserve(static_cast<std::size_t>(memory_size));
        for (int c = 0; c < memory_size; ++c)
            population.push_back(InjectedFault::single(kind, c));
    }
    return population;
}

std::vector<InjectedFault> class_population(fault::FaultKind kind,
                                            int memory_size) {
    std::vector<InjectedFault> population;
    if (memory_size < 2) {
        // No ordered pair exists; a single-cell kind keeps its one cell.
        if (memory_size == 1 && !fault::is_two_cell(kind))
            population.push_back(InjectedFault::single(kind, 0));
        return population;
    }
    if (fault::needs_wait(kind)) {
        // First cell, the interior dictionary slot, last cell (two cells
        // at n = 2, where the slot is cell 0).
        for (const int cell : {0, fault::canonical_slots(memory_size).lo,
                               memory_size - 1})
            if (population.empty() || population.back().cell_a != cell)
                population.push_back(InjectedFault::single(kind, cell));
        return population;
    }
    for (const fault::FaultInstance& instance : fault::instantiate({kind}))
        population.push_back(place_instance(instance, memory_size));
    return population;
}

InjectedFault place_instance(const fault::FaultInstance& instance,
                             int memory_size) {
    const auto [lo, hi] = fault::canonical_slots(memory_size);
    MTG_EXPECTS(lo != hi);
    if (!fault::is_two_cell(instance.kind))
        return InjectedFault::single(instance.kind, lo);
    if (fault::aggressor_at_lo(instance))
        return InjectedFault::coupling(instance.kind, lo, hi);
    return InjectedFault::coupling(instance.kind, hi, lo);
}

}  // namespace mtg::sim
