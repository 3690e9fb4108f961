#pragma once

/// \file lane_dispatch.hpp
/// Runtime selection of the packed kernels' lane-block width and codegen.
///
/// The width-generic kernels are instantiated for W ∈ {1, 4, 8} plane
/// words (64/256/512 lanes per block). All instantiations are plain C++
/// and safe to run on any host; the width choice is purely a performance
/// decision, made once per process:
///
///   1. `MTG_LANE_WIDTH` ∈ {1, 4, 8} forces a width (testing override);
///   2. otherwise CPUID picks the widest block the hardware retires as one
///      vector op: 8 on AVX-512F, 4 on AVX2, else 1.
///
/// Codegen is one rule, active_lane_isa: only a large W=8 job on an
/// AVX-512F host runs the `target("avx512f")` wrapper (word_kernels.cpp);
/// every other pass runs the generic instantiation, so a forced W=8 on a
/// non-AVX host runs baseline code instead of crashing.

#include <cstddef>

namespace mtg::sim {

/// True for the widths the kernels are instantiated for: 1, 4, 8.
[[nodiscard]] bool lane_width_supported(int width);

/// Parses an MTG_LANE_WIDTH-style override: returns 1, 4 or 8, or 0 when
/// the value is null/empty/garbage/unsupported. Exposed for tests.
[[nodiscard]] int parse_lane_width(const char* value);

/// Pure resolution rule behind active_lane_width(), exposed for tests:
/// a valid `override_value` wins; otherwise the widest width the reported
/// CPU features retire as one vector op.
[[nodiscard]] int resolve_lane_width(const char* override_value,
                                     bool has_avx2, bool has_avx512f);

/// Width every WordBatchRunner constructed without an explicit width
/// uses. Resolved once from MTG_LANE_WIDTH and CPUID, then cached for the
/// process lifetime.
[[nodiscard]] int active_lane_width();

/// True when MTG_LANE_WIDTH forces a width. Forced widths are exact (the
/// differential tests and the scalar CI leg must exercise the width they
/// ask for); auto-detected widths are an upper bound the runners clamp
/// per population.
[[nodiscard]] bool lane_width_forced();

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
