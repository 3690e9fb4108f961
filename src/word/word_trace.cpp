#include "word/word_trace.hpp"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "march/expansion.hpp"
#include "word/word_memory.hpp"

namespace mtg::word {

using march::AddressOrder;
using march::MarchOp;
using march::MarchTest;
using march::OpKind;

namespace {

/// Trace of one full execution (all backgrounds, fixed ⇕ choice), in
/// canonical order. Observations are unique per (background, site, word)
/// — a site reads each word exactly once per background — so sorting the
/// execution-order records canonicalises without merging.
WordRunTrace run_once_trace(const MarchTest& test,
                            const std::vector<Background>& backgrounds,
                            const InjectedBitFault& fault,
                            unsigned any_choices, const WordRunOptions& opts) {
    WordMemory memory(opts.words, opts.width);
    memory.inject(fault);

    WordRunTrace trace;
    for (std::size_t k = 0; k < backgrounds.size(); ++k) {
        const std::uint64_t b0 = backgrounds[k].bits;
        const std::uint64_t b1 = backgrounds[k].complement().bits;
        int any_seen = 0;
        for (std::size_t e = 0; e < test.size(); ++e) {
            const auto& element = test[e];
            bool desc = element.order == AddressOrder::Descending;
            if (element.order == AddressOrder::Any) {
                desc = march::any_descending(any_choices, any_seen);
                ++any_seen;
            }
            const int n = opts.words;
            for (int step = 0; step < n; ++step) {
                const int word = desc ? n - 1 - step : step;
                for (std::size_t o = 0; o < element.ops.size(); ++o) {
                    const MarchOp& op = element.ops[o];
                    switch (op.kind) {
                        case OpKind::Write:
                            memory.write(word, op.value ? b1 : b0);
                            break;
                        case OpKind::Wait:
                            memory.wait();
                            break;
                        case OpKind::Read: {
                            const std::uint64_t expected = op.value ? b1 : b0;
                            const std::vector<Trit> got = memory.read(word);
                            std::uint64_t bits = 0;
                            for (int b = 0; b < opts.width; ++b) {
                                const Trit t =
                                    got[static_cast<std::size_t>(b)];
                                const int want = static_cast<int>(
                                    (expected >> b) & 1u);
                                if (is_known(t) && trit_bit(t) != want)
                                    bits |= std::uint64_t{1} << b;
                            }
                            if (bits == 0) break;
                            trace.detected = true;
                            const sim::ReadSite site{static_cast<int>(e),
                                                     static_cast<int>(o)};
                            trace.failing_observations.push_back(
                                {static_cast<int>(k), site, word, bits});
                            if (trace.failing_reads.empty() ||
                                !(trace.failing_reads.back() ==
                                  WordReadSite{static_cast<int>(k), site}))
                                trace.failing_reads.push_back(
                                    {static_cast<int>(k), site});
                            break;
                        }
                    }
                }
            }
        }
    }

    const auto read_key = [](const WordReadSite& r) {
        return std::tuple(r.background, r.site.element, r.site.op);
    };
    const auto obs_key = [](const WordObservation& o) {
        return std::tuple(o.background, o.site.element, o.site.op, o.word);
    };
    std::sort(trace.failing_reads.begin(), trace.failing_reads.end(),
              [&](const auto& a, const auto& b) {
                  return read_key(a) < read_key(b);
              });
    // A site can re-fail after another site interleaved (element with two
    // reads, fault failing at several words), so the execution-order
    // last-entry check above is only a pre-filter.
    trace.failing_reads.erase(
        std::unique(trace.failing_reads.begin(), trace.failing_reads.end()),
        trace.failing_reads.end());
    std::sort(trace.failing_observations.begin(),
              trace.failing_observations.end(),
              [&](const auto& a, const auto& b) {
                  return obs_key(a) < obs_key(b);
              });
    return trace;
}

/// Intersects `next` into `into`: reads survive by membership,
/// observations AND their bit masks (and die when the mask empties).
void intersect(WordRunTrace& into, const WordRunTrace& next) {
    into.detected = into.detected && next.detected;

    std::vector<WordReadSite> reads;
    std::set_intersection(
        into.failing_reads.begin(), into.failing_reads.end(),
        next.failing_reads.begin(), next.failing_reads.end(),
        std::back_inserter(reads), [](const auto& a, const auto& b) {
            return std::tuple(a.background, a.site.element, a.site.op) <
                   std::tuple(b.background, b.site.element, b.site.op);
        });
    into.failing_reads = std::move(reads);

    std::vector<WordObservation> obs;
    auto a = into.failing_observations.begin();
    auto b = next.failing_observations.begin();
    const auto key = [](const WordObservation& o) {
        return std::tuple(o.background, o.site.element, o.site.op, o.word);
    };
    while (a != into.failing_observations.end() &&
           b != next.failing_observations.end()) {
        if (key(*a) < key(*b)) {
            ++a;
        } else if (key(*b) < key(*a)) {
            ++b;
        } else {
            const std::uint64_t bits = a->bits & b->bits;
            if (bits != 0) obs.push_back({a->background, a->site, a->word, bits});
            ++a;
            ++b;
        }
    }
    into.failing_observations = std::move(obs);
}

}  // namespace

WordRunTrace guaranteed_trace(const MarchTest& test,
                              const std::vector<Background>& backgrounds,
                              const InjectedBitFault& fault,
                              const WordRunOptions& opts) {
    MTG_EXPECTS(valid_setup(backgrounds, opts));
    const std::vector<unsigned> choices = expansion_choices(test, opts);
    MTG_EXPECTS(!choices.empty());
    WordRunTrace result =
        run_once_trace(test, backgrounds, fault, choices.front(), opts);
    for (std::size_t c = 1; c < choices.size(); ++c)
        intersect(result,
                  run_once_trace(test, backgrounds, fault, choices[c], opts));
    return result;
}

}  // namespace mtg::word
