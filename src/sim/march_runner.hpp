#pragma once

/// \file march_runner.hpp
/// Executes March tests against the fault simulator and decides detection.
///
/// ⇕ (either-order) elements are expanded: the test only *guarantees*
/// detection if every combination of order choices detects the fault, so
/// the runner enumerates all 2^k combinations (k = number of ⇕ elements,
/// capped; beyond the cap the two uniform choices are used).
///
/// The per-fault run_once/detects pair is the scalar oracle. Population-
/// level questions — paper-§6 coverage of a kind (every placement of
/// full_population detected), the first uncovered kind of a list,
/// guaranteed traces — are engine::Engine queries (see engine/engine.hpp).

#include <string>
#include <vector>

#include "march/march_test.hpp"
#include "sim/memory.hpp"

namespace mtg::fault {
struct FaultInstance;
}

namespace mtg::sim {

/// Static identity of a read operation inside a March test.
struct ReadSite {
    int element{0};  ///< index of the March element
    int op{0};       ///< index of the read op within the element

    friend bool operator==(const ReadSite&, const ReadSite&) = default;
};

/// All read sites of a test, in textual order.
[[nodiscard]] std::vector<ReadSite> read_sites(const march::MarchTest& test);

/// Flat site id of every (element, op) of the test — the index into
/// read_sites(test), or -1 for writes/waits. The lookup table the scalar
/// trace oracle uses to attribute mismatches.
[[nodiscard]] std::vector<std::vector<int>> read_site_ids(
    const march::MarchTest& test);

/// Options for the runner.
struct RunOptions {
    int memory_size{8};        ///< number of cells of the simulated memory
    int max_any_expansion{6};  ///< expand up to 2^k order choices for ⇕
};

/// One observed mismatch: which read of the test failed, at which address.
/// The (site, cell) pair is the unit of bit-test output tracing.
struct Observation {
    ReadSite site;
    int cell{0};

    friend bool operator==(const Observation&, const Observation&) = default;
};

/// Result of one full execution under fixed order choices.
struct RunTrace {
    bool detected{false};
    std::vector<ReadSite> failing_reads;  ///< sites where a mismatch occurred
    std::vector<Observation> failing_observations;  ///< with addresses
};

/// Runs the test once on a fresh memory with the given fault(s), with every
/// ⇕ element resolved by `any_choices` (bit k = element-k-of-the-⇕-elements
/// runs descending). Returns which reads failed.
[[nodiscard]] RunTrace run_once(const march::MarchTest& test,
                                const std::vector<InjectedFault>& faults,
                                unsigned any_choices, const RunOptions& opts = {});

/// True when the test detects the fault under EVERY ⇕ expansion.
[[nodiscard]] bool detects(const march::MarchTest& test,
                           const InjectedFault& fault,
                           const RunOptions& opts = {});

/// Sanity property: on a fault-free memory every read must observe a known,
/// matching value in every ⇕ expansion (no read of uninitialised cells, no
/// wrong expected values). All library and generated tests must satisfy it.
[[nodiscard]] bool is_well_formed(const march::MarchTest& test,
                                  const RunOptions& opts = {});

/// The concrete ⇕ resolutions evaluated by detects() and the batched
/// runner: all 2^k choices when the test has k <= opts.max_any_expansion ⇕
/// elements, otherwise only the two uniform (all-ascending,
/// all-descending) sweeps. Bit j of a choice resolves the j-th ⇕ element
/// (set = descending).
[[nodiscard]] std::vector<unsigned> expansion_choices(
    const march::MarchTest& test, const RunOptions& opts = {});

/// Every concrete placement of `kind` on an n-cell memory: n single-cell
/// instances, or the n·(n-1) ordered (aggressor, victim) pairs. A test
/// "covers" a fault model in the paper-§6 sense when it detects every
/// placement. Degenerate memories yield the mathematically empty
/// population (n=1 has no ordered pair; n=0 nothing). The oracle
/// placement set: the Engine answers kind queries on class_population.
[[nodiscard]] std::vector<InjectedFault> full_population(fault::FaultKind kind,
                                                         int memory_size);

/// One placement per class of full_population(kind, n), at most three
/// per kind whatever n is. For all but the retention kinds these are the
/// paper's instances fault::instantiate({kind}) placed by place_instance:
/// one cell for a single-cell kind; aggressor-below, then aggressor-above
/// for a two-cell kind. A retention kind (fault::needs_wait) places the
/// first cell, the n/3 slot and the last cell. Degenerate memories follow
/// full_population: one cell at n = 1 for a single-cell kind, nothing for
/// a two-cell kind at n < 2, nothing at n <= 0.
///
/// The placement-class lemma. Each simulated memory holds one fault, so
/// every other cell behaves as a fault-free cell, and a March element
/// applies the same operations to every cell in address order. A read or
/// a write at another cell leaves the fault's cells alone, so the
/// operations the faulty cells see, and their interleaving, depend only on
/// the placement's class:
///   - a two-cell kind: (kind, aggressor below or above the victim);
///   - a retention kind: (kind, cell visited first, last or in between).
///     A wait acts on every cell at once, so the cell also sees the waits
///     of the other cells' steps of an element; a decayed cell stays
///     decayed, so only whether such waits come before or after its own
///     step matters;
///   - any other single-cell kind: (kind).
/// So under every ⇕ expansion a placement's verdict is its class
/// representative's verdict, and its trace is the representative's trace
/// with the representative's cells renamed to the placement's (aggressor
/// to aggressor, victim to victim). A test covers a kind over
/// full_population exactly when it detects every class_population fault.
[[nodiscard]] std::vector<InjectedFault> class_population(
    fault::FaultKind kind, int memory_size);

/// Canonical concrete placement of a fault instance on representative cells
/// of an n-cell memory (n >= 2): single-cell faults at n/3; two-cell faults
/// on (n/3, 2n/3) ordered by the instance's aggressor role. It places the
/// bit-universe dictionary sweep the coverage matrix is built from;
/// word::place_instance coincides with it at width 1.
[[nodiscard]] InjectedFault place_instance(const fault::FaultInstance& instance,
                                           int memory_size);

}  // namespace mtg::sim
