#pragma once

/// \file lane_dispatch.hpp
/// Runtime selection of the packed kernels' lane-block width and codegen.
///
/// The width-generic kernels are instantiated for W ∈ {1, 4, 8} plane
/// words (64/256/512 lanes per block). All instantiations are plain C++
/// and safe to run on any host; the width choice is purely a performance
/// decision. CPUID picks the default once per process, the widest block
/// the hardware retires as one vector op: 8 on AVX-512F, 4 on AVX2, else
/// 1. A runner or Engine session given an explicit width runs exactly
/// that width instead.
///
/// The rule is one measured cut (README, "One lane rule"): a population
/// of at most three 63-lane plane words runs W=1, any larger one the CPUID
/// width, and every W=8 pass on an AVX-512F host runs the
/// `target("avx512f")` wrapper (word_kernels.cpp). Every other pass runs
/// the generic instantiation, so an explicit W=8 on a non-AVX host runs
/// baseline code instead of crashing.

#include <cstddef>

namespace mtg::sim {

/// True for the widths the kernels are instantiated for: 1, 4, 8.
[[nodiscard]] bool lane_width_supported(int width);

/// Pure resolution rule behind active_lane_width(), exposed for tests:
/// the widest width the reported CPU features retire as one vector op.
[[nodiscard]] int resolve_lane_width(bool has_avx2, bool has_avx512f);

/// Width every WordBatchRunner constructed without an explicit width
/// uses, as an upper bound it clamps per population. Resolved once from
/// CPUID, then cached for the process lifetime.
[[nodiscard]] int active_lane_width();

/// Width a population of `population` faults runs at under an upper bound
/// of `width`: 1 when the faults fill at most three 63-lane plane words
/// (a wider block would carry mostly empty lanes), `width` otherwise.
/// Results are bit-identical at every width, so the clamp is invisible
/// except in throughput.
[[nodiscard]] int clamp_lane_width(int width, std::size_t population);

/// Host CPU feature queries (false on non-x86 builds).
[[nodiscard]] bool cpu_has_avx2();
[[nodiscard]] bool cpu_has_avx512f();

/// Codegen of a W=8 pass: the zmm wrapper or the generic instantiation.
/// Both are the same template, so every result bit is identical.
/// active_lane_isa returns only Avx512 and Generic; Avx2 and Auto are no
/// longer returned and stay only so callers that name them still build.
enum class LaneIsa { Auto, Avx512, Avx2, Generic };

/// Unused by the library: no job size gates the zmm wrapper any more. It
/// stays declared only because the perfbench driver names it in its run
/// fingerprint.
inline constexpr std::size_t kZmmWorkItemThreshold = 64;

/// The codegen every W=8 pass runs: Avx512 on an AVX-512F host, Generic
/// otherwise. The parameter is unused; it stays only for the perfbench
/// driver's fingerprint call.
[[nodiscard]] LaneIsa active_lane_isa(std::size_t work_items = 0);

}  // namespace mtg::sim
