#include "word/word_batch_runner.hpp"

#include "fault/instance.hpp"
#include "fault/placement.hpp"
#include "sim/lane_dispatch.hpp"

namespace mtg::word {

using march::MarchTest;

WordBatchRunner::WordBatchRunner(const MarchTest& test,
                                 std::vector<Background> backgrounds,
                                 const WordRunOptions& opts,
                                 util::ThreadPool* pool, int lane_width)
    : width_(lane_width != 0 ? lane_width : sim::active_lane_width()),
      adaptive_(lane_width == 0 && !sim::lane_width_forced()) {
    MTG_EXPECTS(opts.words > 0);
    MTG_EXPECTS(opts.width >= 1 && opts.width <= 64);
    MTG_EXPECTS(!backgrounds.empty());
    MTG_EXPECTS(sim::lane_width_supported(width_));
    plan_.test = test;
    plan_.backgrounds = std::move(backgrounds);
    plan_.opts = opts;
    plan_.pool = pool != nullptr ? pool : &util::ThreadPool::global();
    plan_.expansions = expansion_choices(test, opts);
    plan_.sites = sim::read_sites(test);
}

int WordBatchRunner::width_for(std::size_t population) const {
    return adaptive_ ? sim::clamp_lane_width(width_, population) : width_;
}

sim::LaneIsa WordBatchRunner::isa_for(std::size_t population) const {
    // Work items = total pass executions of the job; the zmm-vs-ymm
    // heuristic (resolve_lane_isa) keys off how long the job runs.
    return sim::active_lane_isa(
        sim::block_chunk_total<LaneBlock<8>>(population) *
        plan_.expansions.size());
}

// Each dispatch (here and in run_with) hands the pass getters the plan's
// word width: width 1 (the bit universe) runs the compile-time width-1
// pass.

std::vector<bool> WordBatchRunner::detects(
    std::span<const InjectedBitFault> population) const {
    const int bits = plan_.opts.width;
    switch (width_for(population.size())) {
        case 4:
            return detail::word_detects<LaneBlock<4>>(
                plan_, detail::word_pass_w4(bits), population);
        case 8:
            return detail::word_detects<LaneBlock<8>>(
                plan_, detail::word_pass_w8(bits, isa_for(population.size())),
                population);
        default:
            return detail::word_detects<LaneMask>(
                plan_, detail::word_pass_w1(bits), population);
    }
}

bool WordBatchRunner::detects_all(
    std::span<const InjectedBitFault> population) const {
    const int bits = plan_.opts.width;
    switch (width_for(population.size())) {
        case 4:
            return detail::word_detects_all<LaneBlock<4>>(
                plan_, detail::word_pass_w4(bits), population);
        case 8:
            return detail::word_detects_all<LaneBlock<8>>(
                plan_, detail::word_pass_w8(bits, isa_for(population.size())),
                population);
        default:
            return detail::word_detects_all<LaneMask>(
                plan_, detail::word_pass_w1(bits), population);
    }
}

std::vector<InjectedBitFault> coverage_population(fault::FaultKind kind,
                                                  const WordRunOptions& opts) {
    std::vector<InjectedBitFault> population;
    if (!fault::is_two_cell(kind)) {
        population.reserve(static_cast<std::size_t>(opts.words) *
                           static_cast<std::size_t>(opts.width));
        for (int w = 0; w < opts.words; ++w)
            for (int b = 0; b < opts.width; ++b)
                population.push_back(InjectedBitFault::single(kind, {w, b}));
        return population;
    }
    // Intra-word: every ordered bit pair of a representative word.
    const int word = opts.words / 2;
    for (int a = 0; a < opts.width; ++a)
        for (int v = 0; v < opts.width; ++v)
            if (a != v)
                population.push_back(
                    InjectedBitFault::coupling(kind, {word, a}, {word, v}));
    // Inter-word: every ordered word pair on a representative bit, plus a
    // cross-bit pair to exercise bit-position asymmetry.
    const int bit = opts.width / 2;
    for (int wa = 0; wa < opts.words; ++wa)
        for (int wv = 0; wv < opts.words; ++wv)
            if (wa != wv)
                population.push_back(
                    InjectedBitFault::coupling(kind, {wa, bit}, {wv, bit}));
    // Only when it is genuinely cross-word: at words == 1 the pair
    // {0,0} -> {0, width-1} already exists in the intra-word block above
    // and re-adding it would duplicate a placement.
    if (opts.words >= 2 && opts.width >= 2)
        population.push_back(InjectedBitFault::coupling(
            kind, {0, 0}, {opts.words - 1, opts.width - 1}));
    return population;
}

InjectedBitFault place_instance(const fault::FaultInstance& instance,
                                const WordRunOptions& opts) {
    const auto [lo, hi] = fault::canonical_slots(opts.words);
    MTG_EXPECTS(lo != hi);
    const int bit = opts.width / 2;
    if (!fault::is_two_cell(instance.kind))
        return InjectedBitFault::single(instance.kind, {lo, bit});
    if (fault::aggressor_at_lo(instance))
        return InjectedBitFault::coupling(instance.kind, {lo, bit},
                                          {hi, bit});
    return InjectedBitFault::coupling(instance.kind, {hi, bit}, {lo, bit});
}

}  // namespace mtg::word
