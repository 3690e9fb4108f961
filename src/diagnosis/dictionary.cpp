#include "diagnosis/dictionary.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "engine/engine.hpp"
#include "word/background.hpp"
#include "word/word_march.hpp"

namespace mtg::diagnosis {

using fault::FaultInstance;
using fault::FaultKind;
using march::MarchTest;

std::string Signature::str() const {
    if (failing.empty()) return "(escape)";
    std::ostringstream os;
    for (std::size_t k = 0; k < failing.size(); ++k) {
        if (k) os << ' ';
        os << 'B' << failing[k].background << ".E"
           << failing[k].site.element << '.' << failing[k].site.op << "@w"
           << failing[k].word << '#' << std::hex << failing[k].bits
           << std::dec;
    }
    return os.str();
}

Signature signature_of(const MarchTest& test,
                       const std::vector<word::Background>& backgrounds,
                       const word::InjectedBitFault& fault,
                       const word::WordRunOptions& opts) {
    return Signature{
        word::guaranteed_trace(test, backgrounds, fault, opts)
            .failing_observations};
}

Signature signature_of(const MarchTest& test, const sim::InjectedFault& fault,
                       const sim::RunOptions& opts) {
    return signature_of(test, word::solid_background(1),
                        word::bit_view(fault), word::bit_view(opts));
}

FaultDictionary FaultDictionary::build(
    const MarchTest& test, const std::vector<word::Background>& backgrounds,
    const std::vector<FaultKind>& kinds, const word::WordRunOptions& opts) {
    // One engine dictionary sweep over the placed population; each
    // instance's guaranteed observations become its dictionary signature.
    engine::Result sweep = engine::Engine::global().dictionary_sweep(
        test, backgrounds, kinds, opts);

    // Bucket by the rendered signature (an injective encoding, so string
    // equality ⇔ signature equality), rendering each signature once: the
    // keys are reused for the sort and for the final index.
    std::vector<DictionaryEntry> buckets;
    std::vector<std::string> rendered;  // aligned with `buckets`
    std::unordered_map<std::string, std::size_t> bucket_of;
    for (std::size_t i = 0; i < sweep.instances.size(); ++i) {
        Signature signature{
            std::move(sweep.word_traces[i].failing_observations)};
        const auto [it, inserted] =
            bucket_of.try_emplace(signature.str(), buckets.size());
        if (inserted) {
            buckets.push_back({std::move(signature), {sweep.instances[i]}});
            rendered.push_back(it->first);
        } else {
            buckets[it->second].instances.push_back(sweep.instances[i]);
        }
    }

    std::vector<std::size_t> order(buckets.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return rendered[a] < rendered[b];
              });

    FaultDictionary dictionary;
    dictionary.instance_count_ = static_cast<int>(sweep.instances.size());
    dictionary.entries_.reserve(buckets.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
        DictionaryEntry& bucket = buckets[order[k]];
        if (bucket.signature.detected())
            dictionary.detected_count_ +=
                static_cast<int>(bucket.instances.size());
        dictionary.index_.emplace(std::move(rendered[order[k]]), k);
        dictionary.entries_.push_back(std::move(bucket));
    }
    return dictionary;
}

FaultDictionary FaultDictionary::build(const MarchTest& test,
                                       const std::vector<FaultKind>& kinds,
                                       const sim::RunOptions& opts) {
    // With one background of width 1 the cell form sorts like
    // Signature::str(), so the bucket order needs no second sort.
    FaultDictionary dictionary =
        build(test, word::solid_background(1), kinds, word::bit_view(opts));
    dictionary.cell_form_ = true;
    return dictionary;
}

int FaultDictionary::distinguished_count() const {
    int count = 0;
    for (const DictionaryEntry& entry : entries_)
        if (entry.signature.detected() && entry.instances.size() == 1) ++count;
    return count;
}

double FaultDictionary::resolution() const {
    if (detected_count_ == 0) return 0.0;
    return static_cast<double>(distinguished_count()) /
           static_cast<double>(detected_count_);
}

std::vector<FaultInstance> FaultDictionary::diagnose(
    const Signature& observed) const {
    const auto it = index_.find(observed.str());
    if (it == index_.end()) return {};
    return entries_[it->second].instances;
}

std::vector<FaultInstance> FaultDictionary::diagnose_linear(
    const Signature& observed) const {
    for (const DictionaryEntry& entry : entries_)
        if (entry.signature == observed) return entry.instances;
    return {};
}

std::string FaultDictionary::render(const Signature& signature) const {
    if (!cell_form_ || !signature.detected()) return signature.str();
    // A bit build has one background and one bit per word: the word is
    // the cell.
    std::ostringstream os;
    for (std::size_t k = 0; k < signature.failing.size(); ++k) {
        if (k) os << ' ';
        os << 'E' << signature.failing[k].site.element << '.'
           << signature.failing[k].site.op << "@c"
           << signature.failing[k].word;
    }
    return os.str();
}

std::string FaultDictionary::str() const {
    std::ostringstream os;
    for (const DictionaryEntry& entry : entries_) {
        os << render(entry.signature) << " -> ";
        for (std::size_t k = 0; k < entry.instances.size(); ++k) {
            if (k) os << ", ";
            os << entry.instances[k].name();
        }
        os << '\n';
    }
    return os.str();
}

}  // namespace mtg::diagnosis
