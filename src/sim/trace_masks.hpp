#pragma once

/// \file trace_masks.hpp
/// Guaranteed-trace machinery of the packed grid kernel.
///
/// The trace-extracting pass (word_run_pass, for both universes) follows
/// one scheme: a flat grid of per-coordinate failing-lane masks collects
/// the lanes that mismatch at each coordinate along one ⇕ expansion, and
/// the grids of all expansions are intersected — a lane survives at a
/// coordinate only when EVERY expansion failed there, which is exactly
/// the "guaranteed" trace semantics of the scalar runners. GuaranteedMasks
/// owns that now/intersected grid pair for the dense (background, site)
/// read grid.
///
/// The pass walks the expansions as one prefix-sharing tree (see
/// word_kernels.hpp), so the per-pass grid is a path, not a fresh pass:
/// mark() saves it at a ⇕ branch point, commit_pass() intersects it at a
/// leaf, and rollback() returns it to the last mark before the walk takes
/// the branch's other side. Marks nest like the walk's frames.
///
/// SparseGuaranteedRuns is the same contract for grids too large to
/// materialise densely: per-coordinate sorted runs of (word, bit, lanes)
/// entries, intersected across passes by merge-walking two sorted runs
/// instead of AND-ing a dense slab (the observation grid is
/// O(backgrounds · sites · words · width) dense but only O(touched cells)
/// sparse — see word_kernels.hpp).
///
/// Both sinks are re-armed in place: reset() starts a new chunk and keeps
/// every allocation at its high-water capacity, so the per-thread pair
/// word_run keeps (word_kernels.hpp) costs no allocation once it has seen
/// the largest grid of a workload.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/lane_block.hpp"

namespace mtg::sim::detail {

/// One guaranteed-trace grid: `now` collects the failing lanes of the
/// running pass, `guaranteed` holds the intersection of every committed
/// pass. Coordinates are flat indices chosen by the caller (the kernel
/// uses one per (background, site)).
template <typename Block>
class GuaranteedMasks {
public:
    /// Re-arms the grid for a new chunk: `size` coordinates, all lanes of
    /// `init` initially guaranteed (the kernels seed with the chunk's
    /// used-lane mask: intersecting the first pass then leaves exactly
    /// that pass's failures), no mark pending. Keeps every allocation.
    void reset(std::size_t size, const Block& init) {
        guaranteed_.assign(size, init);
        now_.assign(size, block_zero<Block>());
        marks_.clear();
    }

    /// Zeroes the per-pass grid; call before every expansion pass.
    void begin_pass() {
        std::fill(now_.begin(), now_.end(), block_zero<Block>());
    }

    /// The per-pass grid the pass ORs each coordinate's failing lanes
    /// into.
    [[nodiscard]] std::vector<Block>* pass_grid() { return &now_; }

    /// Intersects the finished pass into the guaranteed grid; the pass
    /// grid is left as it is.
    void commit_pass() {
        for (std::size_t i = 0; i < guaranteed_.size(); ++i)
            guaranteed_[i] &= now_[i];
    }

    /// Saves the pass grid; the matching rollback() restores it.
    void mark() { marks_.insert(marks_.end(), now_.begin(), now_.end()); }

    /// Restores the pass grid saved by the last unmatched mark().
    void rollback() {
        const auto saved = marks_.end() - static_cast<std::ptrdiff_t>(
                                              now_.size());
        std::copy(saved, marks_.end(), now_.begin());
        marks_.erase(saved, marks_.end());
    }

    [[nodiscard]] const Block& guaranteed(std::size_t i) const {
        return guaranteed_[i];
    }
    [[nodiscard]] std::size_t size() const { return guaranteed_.size(); }

private:
    std::vector<Block> guaranteed_;
    std::vector<Block> now_;
    std::vector<Block> marks_;  ///< saved pass grids, innermost last
};

/// One sparse observation cell: the failing-lane mask at a (word, bit)
/// coordinate of a (background, site) run. `word` before `bit` so the
/// default ordering is the canonical trace order within a run.
template <typename Block>
struct SparseObsEntry {
    std::int32_t word;
    std::int32_t bit;
    Block lanes;

    [[nodiscard]] friend bool operator<(const SparseObsEntry& a,
                                        const SparseObsEntry& b) {
        return a.word != b.word ? a.word < b.word : a.bit < b.bit;
    }
};

/// Sparse counterpart of GuaranteedMasks for grids where almost every
/// coordinate stays empty: the dense (background × site × word × bit)
/// observation grid touches O(words · width) cells per run, but a fault
/// lane only ever mismatches at words holding one of its victim bits, so
/// the populated cells per run are O(lanes) regardless of the memory size.
///
/// Layout is site-major: one run (sorted vector of SparseObsEntry) per
/// (background, site) coordinate. A pass appends the cells it actually
/// fails at; commit_pass sorts a copy of the pass run (elements emit words
/// in one address order each, so the sort sees runs of sorted or
/// reverse-sorted input) and intersects it into the guaranteed run by
/// merge-walking the two sorted runs: matching (word, bit) keys AND their
/// lane masks, unmatched keys die, empty intersections are dropped. The
/// first committed pass seeds the guaranteed run outright — the sparse
/// equivalent of GuaranteedMasks seeding with the used-lane mask. The pass
/// run itself stays in append order, so mark() needs only each run's
/// length and rollback() truncates back to it.
///
/// Invariant required of the appender (and upheld by the word pass: every
/// site reads each word exactly once per background along a root-to-leaf
/// path): within one pass, a (word, bit) key is appended to a given run
/// at most once.
template <typename Block>
class SparseGuaranteedRuns {
public:
    SparseGuaranteedRuns() = default;
    explicit SparseGuaranteedRuns(std::size_t coords) { reset(coords); }

    /// Re-arms the runs for a new chunk of `coords` coordinates: every run
    /// empty, no pass committed, no mark pending. The run vectors are kept
    /// at their high-water count and capacity, and only the first `coords`
    /// are in use.
    void reset(std::size_t coords) {
        if (guaranteed_.size() < coords) {
            guaranteed_.resize(coords);
            now_.resize(coords);
        }
        for (std::size_t c = 0; c < coords; ++c) {
            guaranteed_[c].clear();
            now_[c].clear();
        }
        coords_ = coords;
        marks_.clear();
        first_pass_ = true;
    }

    /// Clears the per-pass runs (keeping their capacity); call before
    /// every expansion pass.
    void begin_pass() {
        for (std::size_t c = 0; c < coords_; ++c) now_[c].clear();
    }

    /// Records that `lanes` mismatched at (word, bit) of run `coord`
    /// during the current pass.
    void append(std::size_t coord, int word, int bit, const Block& lanes) {
        now_[coord].push_back({static_cast<std::int32_t>(word),
                               static_cast<std::int32_t>(bit), lanes});
    }

    /// Intersects the finished pass into the guaranteed runs; the pass
    /// runs are left as they are.
    void commit_pass() {
        for (std::size_t c = 0; c < coords_; ++c) {
            auto& now = sorted_;
            now.assign(now_[c].begin(), now_[c].end());
            std::sort(now.begin(), now.end());
            if (first_pass_) {
                guaranteed_[c] = now;
                continue;
            }
            auto& guaranteed = guaranteed_[c];
            std::size_t out = 0, gi = 0, ni = 0;
            while (gi < guaranteed.size() && ni < now.size()) {
                const auto& g = guaranteed[gi];
                const auto& n = now[ni];
                if (g < n) {
                    ++gi;  // failed in earlier passes only: not guaranteed
                } else if (n < g) {
                    ++ni;  // failed in this pass only: not guaranteed
                } else {
                    const Block lanes = g.lanes & n.lanes;
                    if (!block_none(lanes))
                        guaranteed[out++] = {g.word, g.bit, lanes};
                    ++gi;
                    ++ni;
                }
            }
            guaranteed.resize(out);
        }
        first_pass_ = false;
    }

    /// Saves every pass run's length; the matching rollback() truncates
    /// the runs back to them.
    void mark() {
        for (std::size_t c = 0; c < coords_; ++c)
            marks_.push_back(now_[c].size());
    }

    /// Returns the pass runs to the last unmatched mark().
    void rollback() {
        const auto saved =
            marks_.end() - static_cast<std::ptrdiff_t>(coords_);
        for (std::size_t c = 0; c < coords_; ++c)
            now_[c].resize(saved[static_cast<std::ptrdiff_t>(c)]);
        marks_.erase(saved, marks_.end());
    }

    /// The guaranteed run of coordinate `coord`, sorted by (word, bit).
    [[nodiscard]] const std::vector<SparseObsEntry<Block>>& run(
        std::size_t coord) const {
        return guaranteed_[coord];
    }
    [[nodiscard]] std::size_t size() const { return coords_; }

    /// Total populated cells across every guaranteed run (the sparse
    /// grid's memory footprint, for benches and tests).
    [[nodiscard]] std::size_t entry_count() const {
        std::size_t n = 0;
        for (std::size_t c = 0; c < coords_; ++c) n += guaranteed_[c].size();
        return n;
    }

private:
    /// Runs [0, coords_) are in use; later ones keep their capacity for a
    /// larger chunk.
    std::vector<std::vector<SparseObsEntry<Block>>> guaranteed_;
    std::vector<std::vector<SparseObsEntry<Block>>> now_;
    std::vector<SparseObsEntry<Block>> sorted_;  ///< commit_pass's copy
    std::vector<std::size_t> marks_;  ///< saved run lengths, innermost last
    std::size_t coords_{0};
    bool first_pass_{true};
};

}  // namespace mtg::sim::detail
