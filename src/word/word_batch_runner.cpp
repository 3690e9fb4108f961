#include "word/word_batch_runner.hpp"

#include "fault/instance.hpp"
#include "fault/placement.hpp"

namespace mtg::word {

using march::MarchTest;

void WordBatchRunner::reset(const MarchTest& test,
                            const std::vector<Background>& backgrounds,
                            const WordRunOptions& opts,
                            util::ThreadPool* pool, int lane_width) {
    const int width =
        lane_width != 0 ? lane_width : sim::active_lane_width();
    MTG_EXPECTS(valid_setup(backgrounds, opts));
    MTG_EXPECTS(sim::lane_width_supported(width));
    width_ = width;
    adaptive_ = lane_width == 0;
    plan_.test = test;
    plan_.backgrounds = backgrounds;
    plan_.opts = opts;
    plan_.pool = pool != nullptr ? pool : &util::ThreadPool::global();
    march::expansion_choices(test, opts.max_any_expansion, plan_.expansions);
    sim::read_sites(test, plan_.sites);
}

std::vector<bool> WordBatchRunner::detects(
    std::span<const InjectedBitFault> population) const {
    return dispatch(population.size(), [&](auto pass) {
        return detail::word_detects(plan_, pass, population);
    });
}

bool WordBatchRunner::detects_all(
    std::span<const InjectedBitFault> population) const {
    return dispatch(population.size(), [&](auto pass) {
        return detail::word_detects_all(plan_, pass, population);
    });
}

std::vector<WordRunTrace> WordBatchRunner::run(
    std::span<const InjectedBitFault> population) const {
    return dispatch(population.size(), [&](auto pass) {
        return detail::word_run(plan_, pass, population);
    });
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
