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
/// Codegen is one rule, active_lane_isa: only a large W=8 job on an
/// AVX-512F host runs the `target("avx512f")` wrapper (word_kernels.cpp);
/// every other pass runs the generic instantiation, so an explicit W=8 on
/// a non-AVX host runs baseline code instead of crashing.

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

/// Widest profitable width ≤ `width` for a population of `population`
/// faults: a chunk only amortises its per-pass machinery over lanes that
/// exist, so populations spanning few 63-lane plane words run narrower
/// blocks (≤3 words → 1, ≤7 → 4, else 8). Results are bit-identical at
/// every width, so the clamp is invisible except in throughput.
[[nodiscard]] int clamp_lane_width(int width, std::size_t population);

/// Host CPU feature queries (false on non-x86 builds).
[[nodiscard]] bool cpu_has_avx2();
[[nodiscard]] bool cpu_has_avx512f();

/// Codegen of a W=8 pass: the zmm wrapper or the generic instantiation.
/// Both are the same template, so every result bit is identical.
/// active_lane_isa returns only Avx512 and Generic; Avx2 and Auto are no
/// longer returned and stay only so callers that name them still build.
enum class LaneIsa { Auto, Avx512, Avx2, Generic };

/// Job size (chunks × ⇕ expansions) below which a W=8 job runs the
/// generic pass: a short burst of zmm work never amortises the AVX-512
/// frequency-license ramp. A pass walks all of a chunk's expansions as
/// one prefix-sharing tree, so the product measures the job, not the
/// number of work items.
inline constexpr std::size_t kZmmWorkItemThreshold = 64;

/// The codegen a W=8 job of `work_items` (chunks × ⇕ expansions) runs:
/// Avx512 on an AVX-512F host at kZmmWorkItemThreshold or more, Generic
/// otherwise.
[[nodiscard]] LaneIsa active_lane_isa(std::size_t work_items);

}  // namespace mtg::sim
