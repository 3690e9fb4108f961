/// \file lane_kernels.cpp
/// SIMD codegen for the wide lane-block passes.
///
/// The width-generic pass templates compile to correct code on any target,
/// but a stock build (no -mavx*) only emits baseline (SSE2-pair) vector
/// instructions for the LaneBlock vector type. The wrappers below re-emit
/// the whole pass — with every packed-memory operation flattened in —
/// under `target("avx2")` / `target("avx512f")`, so the 256/512-bit block
/// operations lower to single ymm/zmm bitwise ops. The wrappers are strong
/// symbols local to this TU (no per-TU -m flags, no weak-symbol ODR
/// leakage into generic code), and the getters only hand them out when
/// CPUID reports the feature, so every lane width stays runnable on every
/// host. All pass signatures are pointer-only: returning a 256/512-bit
/// vector by value across the wrapper boundary would change the calling
/// convention with the ISA.
///
/// Every wrapper comes in two word widths: `Width` = 1, the compile-time
/// width-1 pass the bit universe runs on, and 0, the run-time-width pass
/// of the word universe.

#include "sim/lane_dispatch.hpp"
#include "word/word_kernels.hpp"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define MTG_SIMD_WRAPPERS 1
#else
#define MTG_SIMD_WRAPPERS 0
#endif

namespace mtg::word::detail {

#if MTG_SIMD_WRAPPERS
namespace {

template <int Width>
__attribute__((target("avx2,tune=haswell"), flatten)) void word_pass_avx2(
    const WordPlan& plan, const InjectedBitFault* faults, int count,
    unsigned choice, LaneBlock<4>* detected_out,
    std::vector<LaneBlock<4>>* site_now,
    SparseGuaranteedRuns<LaneBlock<4>>* obs) {
    word_run_pass<LaneBlock<4>, Width>(plan, faults, count, choice,
                                       detected_out, site_now, obs);
}

template <int Width>
__attribute__((target("avx512f"), flatten)) void word_pass_avx512(
    const WordPlan& plan, const InjectedBitFault* faults, int count,
    unsigned choice, LaneBlock<8>* detected_out,
    std::vector<LaneBlock<8>>* site_now,
    SparseGuaranteedRuns<LaneBlock<8>>* obs) {
    word_run_pass<LaneBlock<8>, Width>(plan, faults, count, choice,
                                       detected_out, site_now, obs);
}

// The 256-bit clone of the W=8 pass: same LaneBlock<8> template, compiled
// under `target("avx2")` so each 64-byte block operation lowers to a pair
// of ymm ops instead of one zmm op. (`-mprefer-vector-width=256` only
// steers the auto-vectoriser; for explicit GNU vector types the narrower
// target IS how you ask for ymm.) On AVX-512 hosts that downclock under
// sustained zmm load this wins for short jobs — see resolve_lane_isa.
template <int Width>
__attribute__((target("avx2,tune=haswell"), flatten)) void
word_pass_avx512_as_avx2(const WordPlan& plan,
                         const InjectedBitFault* faults, int count,
                         unsigned choice, LaneBlock<8>* detected_out,
                         std::vector<LaneBlock<8>>* site_now,
                         SparseGuaranteedRuns<LaneBlock<8>>* obs) {
    word_run_pass<LaneBlock<8>, Width>(plan, faults, count, choice,
                                       detected_out, site_now, obs);
}

}  // namespace
#endif

WordPassFn<LaneMask> word_pass_w1(int width) {
    return width == 1 ? &word_run_pass<LaneMask, 1>
                      : &word_run_pass<LaneMask>;
}

WordPassFn<LaneBlock<4>> word_pass_w4(int width) {
#if MTG_SIMD_WRAPPERS
    if (sim::cpu_has_avx2())
        return width == 1 ? &word_pass_avx2<1> : &word_pass_avx2<0>;
#endif
    return width == 1 ? &word_run_pass<LaneBlock<4>, 1>
                      : &word_run_pass<LaneBlock<4>>;
}

WordPassFn<LaneBlock<8>> word_pass_w8(int width, sim::LaneIsa isa) {
#if MTG_SIMD_WRAPPERS
    // The CPUID guards double as the degrade ladder: an isa the host
    // cannot run falls through to the next-widest runnable codegen.
    if (isa == sim::LaneIsa::Avx512 && sim::cpu_has_avx512f())
        return width == 1 ? &word_pass_avx512<1> : &word_pass_avx512<0>;
    if (isa != sim::LaneIsa::Generic && sim::cpu_has_avx2())
        return width == 1 ? &word_pass_avx512_as_avx2<1>
                          : &word_pass_avx512_as_avx2<0>;
#else
    (void)isa;
#endif
    return width == 1 ? &word_run_pass<LaneBlock<8>, 1>
                      : &word_run_pass<LaneBlock<8>>;
}

}  // namespace mtg::word::detail
