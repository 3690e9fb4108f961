/// \file word_memories.cpp
/// Word-oriented testing: lifting a bit-oriented March test to a W-bit
/// memory with data backgrounds. Shows why the solid background is not
/// enough for intra-word coupling faults, how the binary-counting set
/// fixes it, and what diagnostic resolution the lifted test achieves
/// (word diagnosis dictionary built from guaranteed word traces).
///
/// Usage: word_memories [width]   (power of two, default 8)

#include <cstdio>
#include <cstdlib>

#include "diagnosis/dictionary.hpp"
#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "util/table.hpp"
#include "word/word_march.hpp"

int main(int argc, char** argv) {
    using namespace mtg;

    // One session for every coverage query below (the dictionary builds
    // route through the same process-wide engine internally).
    const engine::Engine engine;

    const int width = argc > 1 ? std::atoi(argv[1]) : 8;
    const auto solid = word::solid_background(width);
    const auto counting = word::counting_backgrounds(width);

    std::printf("word width %d; counting backgrounds:\n", width);
    for (const auto& bg : counting) std::printf("  %s\n", bg.str().c_str());
    std::printf("separates all bit pairs: %s\n\n",
                word::separates_all_bit_pairs(counting) ? "yes" : "NO");

    const auto& test = march::march_c_minus();
    word::WordRunOptions opts;
    opts.width = width;

    std::printf("March C- (10n bit-oriented) lifted to %d-bit words:\n",
                width);
    std::printf("  solid only:    %d ops/word\n",
                word::word_complexity(test, solid));
    std::printf("  counting set:  %d ops/word\n\n",
                word::word_complexity(test, counting));

    TextTable table;
    table.set_header({"fault", "solid bg", "counting bgs"});
    for (const char* family : {"SAF", "TF", "CFin", "CFid", "CFst"}) {
        for (fault::FaultKind kind : fault::expand_fault_family(family)) {
            table.add_row({fault::fault_kind_name(kind),
                           engine.covers_everywhere(test, solid, kind, opts)
                               ? "yes"
                               : "MISS",
                           engine.covers_everywhere(test, counting, kind,
                                                    opts)
                               ? "yes"
                               : "MISS"});
        }
    }
    std::printf("coverage (single-bit, intra-word and inter-word "
                "placements):\n\n%s", table.str().c_str());

    // Diagnosis: how many fault instances do the guaranteed word traces
    // distinguish? More backgrounds -> more observations -> finer classes.
    const auto kinds = fault::parse_fault_kinds("SAF,TF,CFin,CFid");
    TextTable diag;
    diag.set_header({"backgrounds", "instances", "detected",
                     "distinguished", "resolution"});
    for (bool use_counting : {false, true}) {
        const auto dict = diagnosis::FaultDictionary::build(
            test, use_counting ? counting : solid, kinds, opts);
        char res[16];
        std::snprintf(res, sizeof(res), "%.2f", dict.resolution());
        diag.add_row({use_counting ? "counting" : "solid",
                      std::to_string(dict.instance_count()),
                      std::to_string(dict.detected_count()),
                      std::to_string(dict.distinguished_count()), res});
    }
    std::printf("\nword diagnosis dictionary (March C-, %d-bit words):\n\n%s",
                width, diag.str().c_str());
    return 0;
}
