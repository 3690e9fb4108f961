#pragma once

/// \file coverage_matrix.hpp
/// The paper-§6 Coverage Matrix: rows are the elementary blocks of a March
/// test (each read observation point together with the operations that
/// sensitise it), columns are the target fault instances. Entry (r, c) is 1
/// when block r observes instance c with certainty (mismatch under every
/// ⇕-order expansion).

#include <string>
#include <vector>

#include "fault/instance.hpp"
#include "march/march_test.hpp"
#include "setcover/set_cover.hpp"
#include "sim/march_runner.hpp"

namespace mtg::setcover {

/// The coverage matrix plus labels.
struct CoverageMatrix {
    std::vector<sim::ReadSite> blocks;       ///< rows: one per read site
    std::vector<std::string> block_names;    ///< "E2.op0(r0)"
    std::vector<std::string> fault_names;    ///< columns
    BoolMatrix covers;                       ///< blocks × faults

    /// ASCII rendering (rows = blocks).
    [[nodiscard]] std::string str() const;
};

/// Verdict of the §6 analysis.
///
/// The paper's elementary block couples a fault excitation with its
/// observation. Reads that observe no fault themselves (e.g. the exciting
/// read of a deceptive read-disturb) are *support* operations belonging to
/// the following block; they are excluded from the covering computation and
/// reported separately.
struct RedundancyReport {
    bool complete{false};        ///< every column covered by some block
    bool non_redundant{false};   ///< min cover needs ALL observing blocks
    int min_cover_size{0};
    int block_count{0};          ///< observing blocks only
    std::vector<int> support_blocks;    ///< reads observing no fault
    std::vector<int> removable_blocks;  ///< individually droppable rows
};

/// Builds the coverage matrix for a March test against a fault list. Each
/// fault primitive contributes its role instances as columns; instances are
/// placed at representative cells of the simulated memory (the March
/// structure makes placements symmetric — validated separately by
/// engine::Engine::covers_everywhere).
[[nodiscard]] CoverageMatrix build_coverage_matrix(
    const march::MarchTest& test, const std::vector<fault::FaultKind>& kinds,
    const sim::RunOptions& opts = {});

/// Runs the set-covering analysis of the matrix.
[[nodiscard]] RedundancyReport analyse_redundancy(const CoverageMatrix& matrix);

/// Convenience: build + analyse.
[[nodiscard]] RedundancyReport analyse_redundancy(
    const march::MarchTest& test, const std::vector<fault::FaultKind>& kinds,
    const sim::RunOptions& opts = {});

}  // namespace mtg::setcover
