#pragma once

/// \file lane_dispatch.hpp
/// Runtime selection of the packed kernels' lane-block width.
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
/// SIMD *codegen* for the wide widths comes from `target`-attributed
/// wrappers in lane_kernels.cpp; those are only dispatched to when the
/// matching CPUID feature is present, so a forced W=8 on a non-AVX host
/// runs the generic-codegen instantiation instead of crashing.

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

/// Width every BatchRunner / WordBatchRunner constructed without an
/// explicit width uses. Resolved once from MTG_LANE_WIDTH and CPUID, then
/// cached for the process lifetime.
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

/// Codegen flavour of the W=8 pass wrappers. The W=8 block is two
/// *semantically identical* SIMD lowerings: single zmm ops under
/// `target("avx512f")`, or ymm pairs under `target("avx2")` (GCC/Clang
/// split the 64-byte GNU vector type in half — the "256-bit clone";
/// `-mprefer-vector-width=256` only steers the auto-vectoriser, explicit
/// vector types need the narrower target to emit ymm). On AVX-512 hosts
/// whose cores downclock under sustained zmm load, the clone wins for
/// short bursts that never amortise the frequency-license ramp, so Auto
/// picks it for small work grids. Every flavour is bit-identical (same
/// template, different instruction selection).
enum class LaneIsa {
    Auto,     ///< heuristic: zmm for large work grids, ymm clone for small
    Avx512,   ///< force the zmm wrappers (when CPUID allows)
    Avx2,     ///< force the ymm-pair clone (when CPUID allows)
    Generic,  ///< force the baseline-codegen template instantiation
};

/// Parses an MTG_LANE_ISA-style override ("auto", "avx512", "avx2",
/// "generic", case-sensitive): Auto on null/empty/garbage.
[[nodiscard]] LaneIsa parse_lane_isa(const char* value);

/// Pure resolution rule behind the Auto heuristic, exposed for tests: the
/// ISA a W=8 dispatch should use for a job of `work_items` (chunk ×
/// expansion) pass executions given the reported CPU features. Forced
/// ISAs fall back down the feature ladder when CPUID lacks them (the
/// getters never hand out an unrunnable wrapper).
[[nodiscard]] LaneIsa resolve_lane_isa(LaneIsa requested,
                                       std::size_t work_items,
                                       bool has_avx2, bool has_avx512f);

/// Work-grid size below which Auto prefers the 256-bit clone on AVX-512
/// hosts. Exposed so tests and the resolve rule agree on the boundary.
inline constexpr std::size_t kZmmWorkItemThreshold = 64;

/// Process-wide requested ISA: MTG_LANE_ISA at first use, overridable at
/// runtime for the dispatch differential tests (set Generic/Avx2/Avx512
/// and re-run — results must be bit-identical).
[[nodiscard]] LaneIsa requested_lane_isa();
void set_requested_lane_isa(LaneIsa isa);

/// The ISA a W=8 dispatch should hand to sim_pass_w8/word_pass_w8 for a
/// job of `work_items` pass executions: resolve_lane_isa over the
/// process-wide request and the host CPUID features.
[[nodiscard]] LaneIsa active_lane_isa(std::size_t work_items);

}  // namespace mtg::sim
