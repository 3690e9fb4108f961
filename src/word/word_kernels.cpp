/// \file word_kernels.cpp
/// The pass getters and the one SIMD wrapper of the pass; only this TU
/// compiles the pass bodies.
///
/// A stock build (no -mavx*) lowers the LaneBlock vector type to baseline
/// SSE2 pairs. The wrapper re-emits the whole W=8 pass, every packed-memory
/// operation flattened in, under `target("avx512f")`, so each block
/// operation is one zmm op. It is a strong symbol local to this TU (no
/// per-TU -m flags, no weak-symbol ODR leakage into generic code), handed
/// out only when sim::active_lane_isa says Avx512, which needs AVX-512F.
/// Its signature is pointer-only: returning a 512-bit vector by value
/// would change the calling convention with the ISA. For the same reason
/// the ⇕ expansion walk inside it is a loop, not a recursion: a recursive
/// helper cannot be flattened, is emitted out of line under the default
/// target, and a block passed to it by value lands in the wrong register
/// class. `Width` = 1 is the compile-time width-1 pass the bit universe
/// runs on, 0 the run-time one.

#include "word/word_kernels.hpp"

#include "sim/lane_dispatch.hpp"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define MTG_ZMM_WRAPPER 1
#else
#define MTG_ZMM_WRAPPER 0
#endif

namespace mtg::word::detail {

#if MTG_ZMM_WRAPPER
namespace {

template <int Width>
__attribute__((target("avx512f"), flatten)) void word_pass_avx512(
    const WordPlan& plan, const InjectedBitFault* faults, int count,
    std::atomic<bool>* escape, LaneBlock<8>* detected_out,
    GuaranteedMasks<LaneBlock<8>>* sites,
    SparseGuaranteedRuns<LaneBlock<8>>* obs) {
    word_run_pass<LaneBlock<8>, Width>(plan, faults, count, escape,
                                       detected_out, sites, obs);
}

}  // namespace
#endif

template <typename Block>
WordPassFn<Block> generic_pass(int width) {
    return width == 1 ? &word_run_pass<Block, 1> : &word_run_pass<Block>;
}

template WordPassFn<LaneMask> generic_pass<LaneMask>(int);
template WordPassFn<LaneBlock<4>> generic_pass<LaneBlock<4>>(int);
template WordPassFn<LaneBlock<8>> generic_pass<LaneBlock<8>>(int);

WordPassFn<LaneBlock<8>> word_pass_w8(
    int width, [[maybe_unused]] std::size_t work_items) {
#if MTG_ZMM_WRAPPER
    if (sim::active_lane_isa(work_items) == sim::LaneIsa::Avx512)
        return width == 1 ? &word_pass_avx512<1> : &word_pass_avx512<0>;
#endif
    return generic_pass<LaneBlock<8>>(width);
}

}  // namespace mtg::word::detail
