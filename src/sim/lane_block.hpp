#pragma once

/// \file lane_block.hpp
/// Lane-block abstraction behind the packed simulation kernels.
///
/// PR 1/PR 2 packed 64 simulation lanes into one `uint64_t` plane word. A
/// `LaneBlock<W>` widens every plane to W contiguous 64-bit words, so one
/// bitwise plane operation processes 64·W lanes — on AVX2 (W=4) or AVX-512
/// (W=8) hardware the whole block retires as one vector instruction, giving
/// a near-free 4–8× over the scalar word path. The packing convention is
/// per-word: each 64-lane word keeps bit 0 as the fault-free reference
/// lane, so a block chunk carries 63·W fault lanes and is bit-for-bit W
/// stacked scalar chunks. That makes every width produce identical
/// detection masks per fault, which the lane-width differential tests
/// enforce.
///
/// The width-generic kernels are written against the small trait surface
/// below (`block_zero`, `block_ones`, `block_none`, `block_word`, ...) and
/// instantiated for `LaneMask` (the scalar W=1 fallback — plain `uint64_t`,
/// zero abstraction cost) and `LaneBlock<4>` / `LaneBlock<8>`. All block
/// code is plain C++ (unrolled word loops, no intrinsics), so every width
/// is safe to *run* on every host. A stock build lowers the wide blocks
/// to baseline SSE2 pairs; the one SIMD-codegen exception is the W=8
/// pass's `target("avx512f")` wrapper in word/word_kernels.cpp, chosen at
/// runtime by CPUID and work size (see lane_dispatch.hpp).

#include <bit>
#include <cstddef>
#include <cstdint>

namespace mtg::sim {

/// One bit per simulation lane.
using LaneMask = std::uint64_t;

/// Number of lanes packed into one plane word.
inline constexpr int kLaneCount = 64;

/// All-ones lane mask.
inline constexpr LaneMask kAllLanes = ~LaneMask{0};

/// Population lanes per plane word: 63 fault lanes + the fault-free
/// reference lane 0 — the packing convention of every packed chunk.
inline constexpr int kChunkLanes = kLaneCount - 1;

/// Mask of the population lanes 1..count of one plane word.
constexpr LaneMask used_lanes(int count) {
    return (count == kChunkLanes ? kAllLanes
                                 : (LaneMask{1} << (count + 1)) - 1) &
           ~LaneMask{1};
}

/// Lane count of chunk `c` of a population of `population` faults (scalar
/// 63-lane chunking; the block-generic variant is block_chunk_count below).
constexpr int chunk_count(std::size_t population, std::size_t c) {
    const std::size_t remaining = population - c * kChunkLanes;
    return remaining < static_cast<std::size_t>(kChunkLanes)
               ? static_cast<int>(remaining)
               : kChunkLanes;
}

/// Block storage: a GNU vector type where available, so every bitwise
/// block operation is guaranteed to lower to whole-register vector
/// instructions (SSE2 pairs on a baseline x86-64 build, single ymm/zmm
/// ops inside the `target`-attributed wrappers) instead of relying on the
/// auto-vectoriser finding the word loops; a plain array otherwise.
#if defined(__GNUC__) || defined(__clang__)
#define MTG_LANE_VECTOR_EXT 1
template <int W>
struct LaneVec;
template <>
struct LaneVec<4> {
    typedef std::uint64_t type __attribute__((vector_size(32)));
};
template <>
struct LaneVec<8> {
    typedef std::uint64_t type __attribute__((vector_size(64)));
};
#else
#define MTG_LANE_VECTOR_EXT 0
template <int W>
struct LaneVec {
    using type = std::uint64_t[W];
};
#endif

/// W contiguous plane words, operated on as one value. Alignment matches
/// the natural vector register size so vector loads stay aligned.
template <int W>
struct alignas(8 * W) LaneBlock {
    static_assert(W == 4 || W == 8,
                  "lane blocks span 4 or 8 plane words (256/512-bit)");

    typename LaneVec<W>::type w{};

    friend LaneBlock operator&(LaneBlock a, const LaneBlock& b) {
#if MTG_LANE_VECTOR_EXT
        a.w &= b.w;
#else
        for (int i = 0; i < W; ++i) a.w[i] &= b.w[i];
#endif
        return a;
    }
    friend LaneBlock operator|(LaneBlock a, const LaneBlock& b) {
#if MTG_LANE_VECTOR_EXT
        a.w |= b.w;
#else
        for (int i = 0; i < W; ++i) a.w[i] |= b.w[i];
#endif
        return a;
    }
    friend LaneBlock operator^(LaneBlock a, const LaneBlock& b) {
#if MTG_LANE_VECTOR_EXT
        a.w ^= b.w;
#else
        for (int i = 0; i < W; ++i) a.w[i] ^= b.w[i];
#endif
        return a;
    }
    friend LaneBlock operator~(LaneBlock a) {
#if MTG_LANE_VECTOR_EXT
        a.w = ~a.w;
#else
        for (int i = 0; i < W; ++i) a.w[i] = ~a.w[i];
#endif
        return a;
    }
    LaneBlock& operator&=(const LaneBlock& b) {
#if MTG_LANE_VECTOR_EXT
        w &= b.w;
#else
        for (int i = 0; i < W; ++i) w[i] &= b.w[i];
#endif
        return *this;
    }
    LaneBlock& operator|=(const LaneBlock& b) {
#if MTG_LANE_VECTOR_EXT
        w |= b.w;
#else
        for (int i = 0; i < W; ++i) w[i] |= b.w[i];
#endif
        return *this;
    }
    LaneBlock& operator^=(const LaneBlock& b) {
#if MTG_LANE_VECTOR_EXT
        w ^= b.w;
#else
        for (int i = 0; i < W; ++i) w[i] ^= b.w[i];
#endif
        return *this;
    }
    friend bool operator==(const LaneBlock& a, const LaneBlock& b) {
        for (int i = 0; i < W; ++i)
            if (a.w[i] != b.w[i]) return false;
        return true;
    }
};

/// Uniform access to a block's plane words; specialised so the scalar
/// `LaneMask` path compiles to exactly the PR 2 code.
template <typename Block>
struct BlockTraits;

template <>
struct BlockTraits<LaneMask> {
    static constexpr int words = 1;
    static constexpr LaneMask zero() { return 0; }
    static constexpr LaneMask ones() { return kAllLanes; }
    static constexpr bool none(LaneMask b) { return b == 0; }
    static constexpr LaneMask word(LaneMask b, int) { return b; }
    static constexpr void set_word(LaneMask& b, int, LaneMask v) { b = v; }
    static constexpr LaneMask& word_ref(LaneMask& b, int) { return b; }
};

template <int W>
struct BlockTraits<LaneBlock<W>> {
    static constexpr int words = W;
    static LaneBlock<W> zero() { return {}; }
    static LaneBlock<W> ones() {
        LaneBlock<W> b;
        for (int i = 0; i < W; ++i) b.w[i] = kAllLanes;
        return b;
    }
    static bool none(const LaneBlock<W>& b) {
        LaneMask any = 0;
        for (int i = 0; i < W; ++i) any |= b.w[i];
        return any == 0;
    }
    static LaneMask word(const LaneBlock<W>& b, int i) { return b.w[i]; }
    static void set_word(LaneBlock<W>& b, int i, LaneMask v) { b.w[i] = v; }
    static LaneMask& word_ref(LaneBlock<W>& b, int i) {
        return reinterpret_cast<LaneMask*>(&b.w)[i];
    }
};

/// Plane words per block (1 for the scalar LaneMask path).
template <typename Block>
inline constexpr int block_words = BlockTraits<Block>::words;

/// Simulation lanes per block (64·W).
template <typename Block>
inline constexpr int block_lane_count = kLaneCount * block_words<Block>;

/// Fault lanes per block chunk (63·W — bit 0 of every word is reserved for
/// the fault-free reference by the per-word packing convention).
template <typename Block>
inline constexpr int block_fault_lanes = kChunkLanes * block_words<Block>;

template <typename Block>
inline Block block_zero() {
    return BlockTraits<Block>::zero();
}

template <typename Block>
inline Block block_ones() {
    return BlockTraits<Block>::ones();
}

/// All-ones when `bit` is set, all-zeros otherwise (broadcast of a written
/// or expected data bit across every lane).
template <typename Block>
inline Block block_fill(bool bit) {
    return bit ? block_ones<Block>() : block_zero<Block>();
}

template <typename Block>
inline bool block_none(const Block& b) {
    return BlockTraits<Block>::none(b);
}

/// Plane word `i` of the block.
template <typename Block>
inline LaneMask block_word(const Block& b, int i) {
    return BlockTraits<Block>::word(b, i);
}

template <typename Block>
inline LaneMask& block_word_ref(Block& b, int i) {
    return BlockTraits<Block>::word_ref(b, i);
}

/// Block with exactly lane `lane` set.
template <typename Block>
inline Block block_lane_bit(int lane) {
    Block b = block_zero<Block>();
    BlockTraits<Block>::set_word(b, lane / kLaneCount,
                                 LaneMask{1} << (lane % kLaneCount));
    return b;
}

/// Invokes fn(word, mask) for every plane word of `lanes` with at least
/// one lane set — how the packed memories split a multi-word lane mask
/// into word-sparse per-fault entries (a single fault always lands in
/// exactly ONE plane word, the invariant that keeps per-fault bookkeeping
/// at scalar cost regardless of the block width).
template <typename Block, typename Fn>
inline void for_each_block_word(const Block& lanes, Fn&& fn) {
    for (int w = 0; w < block_words<Block>; ++w) {
        const LaneMask m = block_word(lanes, w);
        if (m) fn(w, m);
    }
}

/// Invokes fn(lane) for every set lane of `lanes`, in ascending lane
/// order — the sparse-trace extraction walks populated cells and fans
/// their lane masks out to per-fault traces, so it iterates set bits
/// instead of probing all 64·W lanes per cell.
template <typename Block, typename Fn>
inline void for_each_lane(const Block& lanes, Fn&& fn) {
    for (int w = 0; w < block_words<Block>; ++w) {
        LaneMask m = block_word(lanes, w);
        while (m != 0) {
            fn(w * kLaneCount + std::countr_zero(m));
            m &= m - 1;
        }
    }
}

/// Value of lane `lane` of the block.
template <typename Block>
inline bool block_test(const Block& b, int lane) {
    return ((BlockTraits<Block>::word(b, lane / kLaneCount) >>
             (lane % kLaneCount)) &
            1u) != 0;
}

/// Lane index of member `i` of a block chunk: word i/63, bit 1 + i%63 —
/// faults fill each plane word's 63 population lanes before moving to the
/// next word, so word k of a block chunk is bit-identical to scalar chunk
/// (c·W + k).
constexpr int fault_lane(int i) {
    return (i / kChunkLanes) * kLaneCount + 1 + i % kChunkLanes;
}

/// Mask of the population lanes of a chunk carrying `count` faults.
template <typename Block>
inline Block block_used_lanes(int count) {
    Block b = block_zero<Block>();
    for (int w = 0; w < block_words<Block> && count > 0; ++w) {
        const int here = count < kChunkLanes ? count : kChunkLanes;
        BlockTraits<Block>::set_word(b, w, used_lanes(here));
        count -= here;
    }
    return b;
}

/// Number of block chunks a population of `population` faults occupies.
template <typename Block>
constexpr std::size_t block_chunk_total(std::size_t population) {
    const auto per = static_cast<std::size_t>(block_fault_lanes<Block>);
    return (population + per - 1) / per;
}

/// Fault count of block chunk `c` of a population of `population` faults.
template <typename Block>
constexpr int block_chunk_count(std::size_t population, std::size_t c) {
    const auto per = static_cast<std::size_t>(block_fault_lanes<Block>);
    const std::size_t remaining = population - c * per;
    return remaining < per ? static_cast<int>(remaining)
                           : block_fault_lanes<Block>;
}

}  // namespace mtg::sim
