/// \file fault_diagnosis.cpp
/// Fault diagnosis by output tracing (paper reference [6]): builds the
/// fault dictionary of a March test, prints the signature table and the
/// diagnostic resolution, then demonstrates diagnosing an "observed"
/// failure signature back to candidate faults.
///
/// Usage: fault_diagnosis [march-name] [fault-list]
///   defaults: "March C-" and SAF,TF,ADF,CFin,CFid.

#include <cstdio>
#include <string>

#include "diagnosis/dictionary.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace mtg;

    const std::string which = argc > 1 ? argv[1] : "March C-";
    const std::string list = argc > 2 ? argv[2] : "SAF,TF,ADF,CFin,CFid";

    march::MarchTest test;
    try {
        test = march::find_march_test(which).test;
    } catch (const std::invalid_argument&) {
        test = march::parse_march(which);
    }
    const auto kinds = fault::parse_fault_kinds(list);

    std::printf("March test: %s\nfault list: %s\n\n",
                test.str(march::Notation::Unicode).c_str(), list.c_str());

    const auto dict = diagnosis::FaultDictionary::build(test, kinds);
    std::printf("Fault dictionary (signature -> candidate faults):\n%s\n",
                dict.str().c_str());
    std::printf("instances:     %d\n", dict.instance_count());
    std::printf("detected:      %d\n", dict.detected_count());
    std::printf("distinguished: %d\n", dict.distinguished_count());
    std::printf("resolution:    %.2f\n\n", dict.resolution());

    // Simulate a field failure: inject a fault, capture its trace, then
    // pretend we only saw the trace.
    const auto observed = diagnosis::signature_of(
        test, sim::InjectedFault::coupling(fault::FaultKind::CfidUp0,
                                           /*aggressor=*/2, /*victim=*/5));
    std::printf("observed failure signature: %s\ncandidates:\n",
                dict.render(observed).c_str());
    for (const auto& candidate : dict.diagnose(observed))
        std::printf("  %s\n", candidate.name().c_str());
    return 0;
}
