#pragma once

/// \file pass_scratch.hpp
/// The packed pass kernel's per-thread scratch memory, armed with the
/// chunk of faults it holds.
///
/// A pass reads a packed memory's fault tables (single-bit masks,
/// coupling, static-coupling and decoder-map entries) and writes only its
/// value/known planes. A memory that already holds a chunk can therefore
/// run that chunk again once its planes are back at X (clear_cells()),
/// without a reset and re-inject. The scratch remembers its chunk by
/// content plus the memory geometry (words × width; a bit-universe query
/// is n words of width 1). Repeat gates on a cached population then pay
/// the inject once per worker thread. Any
/// other chunk or geometry re-arms it: reset(), which keeps every
/// allocation at its high-water capacity, then inject.
///
/// Content is the key, not the address, so a population freed and
/// reallocated at the same address can never pass for the old one.

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "sim/lane_block.hpp"

namespace mtg::sim::detail {

/// `Memory` is a word::PackedWordMemoryT holding `Fault`s.
template <typename Block, typename Memory, typename Fault>
class ArmedPassScratch {
public:
    /// The memory holding `chunk` — chunk[i] at lane fault_lane(i) — with
    /// every bit at X.
    Memory& arm(std::span<const Fault> chunk, int words, int width) {
        if (armed_ && words == words_ && width == width_ &&
            std::ranges::equal(chunk, chunk_)) {
            memory_->clear_cells();
            return *memory_;
        }
        // Disarmed until the inject completes: a contract failure half way
        // must not leave a partial chunk that a later call would match.
        armed_ = false;
        if (memory_)
            memory_->reset(words, width);
        else
            memory_.emplace(words, width);
        for (std::size_t i = 0; i < chunk.size(); ++i)
            memory_->inject(chunk[i], block_lane_bit<Block>(
                                          fault_lane(static_cast<int>(i))));
        chunk_.assign(chunk.begin(), chunk.end());
        words_ = words;
        width_ = width;
        armed_ = true;
        return *memory_;
    }

private:
    std::optional<Memory> memory_;
    std::vector<Fault> chunk_;
    int words_{0};
    int width_{0};
    bool armed_{false};
};

}  // namespace mtg::sim::detail
