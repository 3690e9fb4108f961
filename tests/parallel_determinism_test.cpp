/// Thread-count independence: the sharded packed kernel must return
/// bit-identical results for worker counts {1, 2, hardware_concurrency},
/// for bit queries (Engine sessions on the packed backend) and word
/// runners alike, and agree with the scalar oracles — threading is an
/// execution detail, never a semantic one.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "sim/march_runner.hpp"
#include "util/thread_pool.hpp"
#include "word/background.hpp"
#include "word/word_batch_runner.hpp"
#include "word/word_march.hpp"

namespace mtg {
namespace {

using fault::FaultKind;

/// The worker counts every runner must agree across.
std::vector<unsigned> worker_counts() {
    const unsigned hardware =
        std::max(1u, std::thread::hardware_concurrency());
    return {1u, 2u, hardware};
}

TEST(ParallelDeterminism, BitDetectsAndTracesMatchEveryPoolSize) {
    const sim::RunOptions opts{.memory_size = 5, .max_any_expansion = 6};
    const std::vector<FaultKind> kinds = {
        FaultKind::Saf0,   FaultKind::TfUp,      FaultKind::Rdf1,
        FaultKind::Drf0,   FaultKind::CfidUp0,   FaultKind::CfinDown,
        FaultKind::CfstS1F0, FaultKind::Af,      FaultKind::AfMap,
    };
    for (const char* name : {"MATS", "March SS"}) {
        const auto& test = march::find_march_test(name).test;
        for (FaultKind kind : kinds) {
            const auto population =
                sim::full_population(kind, opts.memory_size);

            // Scalar-oracle reference verdicts.
            std::vector<bool> scalar;
            scalar.reserve(population.size());
            for (const auto& fault : population)
                scalar.push_back(sim::detects(test, fault, opts));

            std::vector<sim::RunTrace> reference_traces;
            for (unsigned workers : worker_counts()) {
                util::ThreadPool pool(workers);
                const engine::Engine session(
                    engine::EngineConfig{.pool = &pool});
                ASSERT_EQ(session.detects(test, population, opts), scalar)
                    << name << ' ' << fault_kind_name(kind) << " workers "
                    << workers;

                const auto traces = session.traces(test, population, opts);
                ASSERT_EQ(traces.size(), population.size());
                if (reference_traces.empty()) {
                    reference_traces = traces;
                } else {
                    for (std::size_t i = 0; i < traces.size(); ++i) {
                        ASSERT_EQ(traces[i].detected,
                                  reference_traces[i].detected);
                        ASSERT_EQ(traces[i].failing_reads,
                                  reference_traces[i].failing_reads)
                            << name << ' ' << fault_kind_name(kind)
                            << " workers " << workers << " fault " << i;
                        ASSERT_EQ(traces[i].failing_observations,
                                  reference_traces[i].failing_observations);
                    }
                }
                for (std::size_t i = 0; i < traces.size(); ++i)
                    ASSERT_EQ(traces[i].detected, scalar[i]);
            }
        }
    }
}

TEST(ParallelDeterminism, DetectsAllFailFastAgreesWithFullEvaluation) {
    const sim::RunOptions opts{.memory_size = 6, .max_any_expansion = 6};
    // MATS misses several kinds, March C- covers the static list: both the
    // escaping and the fully-covered verdicts must be stable under any
    // worker count.
    for (const char* name : {"MATS", "March C-"}) {
        const auto& test = march::find_march_test(name).test;
        for (FaultKind kind : {FaultKind::TfDown, FaultKind::CfidUp0,
                               FaultKind::Saf1}) {
            const auto population =
                sim::full_population(kind, opts.memory_size);
            bool all = true;
            for (const auto& fault : population)
                all = all && sim::detects(test, fault, opts);
            for (unsigned workers : worker_counts()) {
                util::ThreadPool pool(workers);
                const engine::Engine session(
                    engine::EngineConfig{.pool = &pool});
                engine::Query query;
                query.test = test;
                query.universe = engine::BitUniverse{opts};
                query.want = engine::Want::DetectsAll;
                query.bit_faults = population;
                EXPECT_EQ(session.run(query).all, all)
                    << name << ' ' << fault_kind_name(kind) << " workers "
                    << workers;
            }
        }
    }
}

TEST(ParallelDeterminism, WordBatchRunnerMatchesEveryPoolSize) {
    word::WordRunOptions opts;
    opts.words = 4;
    opts.width = 4;
    const auto backgrounds = word::counting_backgrounds(opts.width);
    const auto& test = march::march_c_minus();
    for (FaultKind kind : {FaultKind::Saf0, FaultKind::TfDown,
                           FaultKind::CfidUp1, FaultKind::CfstS0F1,
                           FaultKind::AfMap}) {
        const auto population = word::coverage_population(kind, opts);

        std::vector<bool> scalar;
        scalar.reserve(population.size());
        for (const auto& fault : population)
            scalar.push_back(word::detects(test, backgrounds, fault, opts));

        for (unsigned workers : worker_counts()) {
            util::ThreadPool pool(workers);
            const word::WordBatchRunner runner(test, backgrounds, opts,
                                               &pool);
            ASSERT_EQ(runner.detects(population), scalar)
                << fault_kind_name(kind) << " workers " << workers;
            bool all = true;
            for (const bool d : scalar) all = all && d;
            ASSERT_EQ(runner.detects_all(population), all)
                << fault_kind_name(kind) << " workers " << workers;
        }
    }
}

TEST(ParallelDeterminism, CoversAllMatchesPerKindSweep) {
    // The generator's single all-kind gate must be exactly the conjunction
    // of the per-kind covers_everywhere verdicts.
    const sim::RunOptions opts{.memory_size = 5, .max_any_expansion = 6};
    const auto static_list = fault::parse_fault_kinds("SAF,TF,CFin,CFid,CFst");
    const engine::Engine& engine = engine::Engine::global();
    for (const char* name : {"MATS", "MATS++", "March C-"}) {
        const auto& test = march::find_march_test(name).test;
        bool every_kind = true;
        for (const FaultKind kind : static_list)
            every_kind =
                every_kind && engine.covers_everywhere(test, kind, opts);
        EXPECT_EQ(engine.covers_all(test, static_list, opts), every_kind)
            << name;
    }
    EXPECT_TRUE(engine.covers_all(march::march_c_minus(), {}, opts));
}

}  // namespace
}  // namespace mtg
