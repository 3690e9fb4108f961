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

#include "sim/lane_dispatch.hpp"
#include "sim/sim_kernels.hpp"
#include "word/word_kernels.hpp"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define MTG_SIMD_WRAPPERS 1
#else
#define MTG_SIMD_WRAPPERS 0
#endif

namespace mtg::sim::detail {

#if MTG_SIMD_WRAPPERS
namespace {

__attribute__((target("avx2,tune=haswell"), flatten)) void sim_pass_avx2(
    const SimPlan& plan, const InjectedFault* faults, int count,
    unsigned choice, LaneBlock<4>* detected_out,
    std::vector<LaneBlock<4>>* site_now,
    std::vector<LaneBlock<4>>* obs_now) {
    sim_run_pass<LaneBlock<4>>(plan, faults, count, choice, detected_out,
                               site_now, obs_now);
}

__attribute__((target("avx512f"), flatten)) void sim_pass_avx512(
    const SimPlan& plan, const InjectedFault* faults, int count,
    unsigned choice, LaneBlock<8>* detected_out,
    std::vector<LaneBlock<8>>* site_now,
    std::vector<LaneBlock<8>>* obs_now) {
    sim_run_pass<LaneBlock<8>>(plan, faults, count, choice, detected_out,
                               site_now, obs_now);
}

// The 256-bit clone of the W=8 pass: same LaneBlock<8> template, compiled
// under `target("avx2")` so each 64-byte block operation lowers to a pair
// of ymm ops instead of one zmm op. (`-mprefer-vector-width=256` only
// steers the auto-vectoriser; for explicit GNU vector types the narrower
// target IS how you ask for ymm.) On AVX-512 hosts that downclock under
// sustained zmm load this wins for short jobs — see resolve_lane_isa.
__attribute__((target("avx2,tune=haswell"), flatten)) void
sim_pass_avx512_as_avx2(const SimPlan& plan, const InjectedFault* faults,
                        int count, unsigned choice,
                        LaneBlock<8>* detected_out,
                        std::vector<LaneBlock<8>>* site_now,
                        std::vector<LaneBlock<8>>* obs_now) {
    sim_run_pass<LaneBlock<8>>(plan, faults, count, choice, detected_out,
                               site_now, obs_now);
}

}  // namespace
#endif

SimPassFn<LaneMask> sim_pass_w1() { return &sim_run_pass<LaneMask>; }

SimPassFn<LaneBlock<4>> sim_pass_w4() {
#if MTG_SIMD_WRAPPERS
    if (cpu_has_avx2()) return &sim_pass_avx2;
#endif
    return &sim_run_pass<LaneBlock<4>>;
}

SimPassFn<LaneBlock<8>> sim_pass_w8(LaneIsa isa) {
#if MTG_SIMD_WRAPPERS
    // The CPUID guards double as the degrade ladder: an isa the host
    // cannot run falls through to the next-widest runnable codegen.
    if (isa == LaneIsa::Avx512 && cpu_has_avx512f())
        return &sim_pass_avx512;
    if (isa != LaneIsa::Generic && cpu_has_avx2())
        return &sim_pass_avx512_as_avx2;
#else
    (void)isa;
#endif
    return &sim_run_pass<LaneBlock<8>>;
}

}  // namespace mtg::sim::detail

namespace mtg::word::detail {

#if MTG_SIMD_WRAPPERS
namespace {

__attribute__((target("avx2,tune=haswell"), flatten)) void word_pass_avx2(
    const WordPlan& plan, const InjectedBitFault* faults, int count,
    unsigned choice, LaneBlock<4>* detected_out,
    std::vector<LaneBlock<4>>* site_now,
    SparseGuaranteedRuns<LaneBlock<4>>* obs) {
    word_run_pass<LaneBlock<4>>(plan, faults, count, choice, detected_out,
                                site_now, obs);
}

__attribute__((target("avx512f"), flatten)) void word_pass_avx512(
    const WordPlan& plan, const InjectedBitFault* faults, int count,
    unsigned choice, LaneBlock<8>* detected_out,
    std::vector<LaneBlock<8>>* site_now,
    SparseGuaranteedRuns<LaneBlock<8>>* obs) {
    word_run_pass<LaneBlock<8>>(plan, faults, count, choice, detected_out,
                                site_now, obs);
}

// 256-bit clone of the W=8 word pass (ymm pairs; see the sim clone above).
__attribute__((target("avx2,tune=haswell"), flatten)) void
word_pass_avx512_as_avx2(const WordPlan& plan,
                         const InjectedBitFault* faults, int count,
                         unsigned choice, LaneBlock<8>* detected_out,
                         std::vector<LaneBlock<8>>* site_now,
                         SparseGuaranteedRuns<LaneBlock<8>>* obs) {
    word_run_pass<LaneBlock<8>>(plan, faults, count, choice, detected_out,
                                site_now, obs);
}

}  // namespace
#endif

WordPassFn<LaneMask> word_pass_w1() { return &word_run_pass<LaneMask>; }

WordPassFn<LaneBlock<4>> word_pass_w4() {
#if MTG_SIMD_WRAPPERS
    if (sim::cpu_has_avx2()) return &word_pass_avx2;
#endif
    return &word_run_pass<LaneBlock<4>>;
}

WordPassFn<LaneBlock<8>> word_pass_w8(sim::LaneIsa isa) {
#if MTG_SIMD_WRAPPERS
    if (isa == sim::LaneIsa::Avx512 && sim::cpu_has_avx512f())
        return &word_pass_avx512;
    if (isa != sim::LaneIsa::Generic && sim::cpu_has_avx2())
        return &word_pass_avx512_as_avx2;
#else
    (void)isa;
#endif
    return &word_run_pass<LaneBlock<8>>;
}

}  // namespace mtg::word::detail
