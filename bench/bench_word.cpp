/// \file bench_word.cpp
/// Word-oriented extension: coverage of solid vs counting backgrounds on
/// intra-word coupling faults, simulation cost versus word width, and the
/// scalar-vs-packed kernel head-to-head (emits a BENCH_word.json summary
/// line mirroring bench_sim's), and sweep's word leg through an Engine.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_timing.hpp"

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "net/remote_backend.hpp"
#include "net/worker.hpp"
#include "sim/lane_dispatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "word/word_batch_runner.hpp"
#include "word/word_march.hpp"
#include "word/word_trace.hpp"

namespace {

using namespace mtg;
using benchutil::seconds_per_sweep;

/// Sparse observation grids, three legs. Runs FIRST in main():
/// ru_maxrss is monotonic, so the RSS measurement must precede anything
/// that inflates the process high-water mark.
void print_sparse_grids() {
    const auto& test = march::march_c_minus();
    util::ThreadPool serial(1);

    // Leg 1 — trace memory at words=2048 × width=8: the sparse runs hold
    // only the touched cells. Explicit W=8 so the block width matches the
    // production shape.
    word::WordRunOptions big;
    big.words = 2048;
    big.width = 8;
    const auto big_backgrounds = word::counting_backgrounds(big.width);
    std::vector<word::InjectedBitFault> big_population;
    big_population.push_back(
        word::InjectedBitFault::single(fault::FaultKind::Saf0, {0, 0}));
    big_population.push_back(word::InjectedBitFault::coupling(
        fault::FaultKind::CfidUp1, {100, 3}, {2000, 3}));
    big_population.push_back(word::InjectedBitFault::coupling(
        fault::FaultKind::CfinDown, {1024, 1}, {1024, 6}));
    const word::WordBatchRunner big_runner(test, big_backgrounds, big,
                                           &serial, 8);
    // Warm up once so the simulation scratch — plane vectors, per-fault
    // tables, result buffers — is already in the baseline; the delta
    // below then isolates the trace-grid memory.
    (void)big_runner.run(big_population);
    const double rss_start = benchutil::peak_rss_mb();
    (void)big_runner.run(big_population);
    // The high-water mark cannot shrink, so the delta is the run's own
    // allocation ceiling; clamp to one page.
    const double sparse_mb =
        std::max(benchutil::peak_rss_mb() - rss_start, 4.0 / 1024);

    // Leg 2 — words=4096 × width=8 completes under the sparse grids (a
    // dense slab for this shape would not be allocatable on a dev box).
    word::WordRunOptions huge;
    huge.words = 4096;
    huge.width = 8;
    std::vector<word::InjectedBitFault> huge_population = big_population;
    huge_population.push_back(word::InjectedBitFault::coupling(
        fault::FaultKind::CfidDown0, {4095, 7}, {0, 0}));
    const word::WordBatchRunner huge_runner(test, big_backgrounds, huge,
                                            &serial, 8);
    const double huge_s = seconds_per_sweep(
        [&] { return huge_runner.run(huge_population).size(); });
    const double huge_fps =
        static_cast<double>(huge_population.size()) / huge_s;

    // Leg 3 — trace throughput on the 32 words × 16 bits workload.
    word::WordRunOptions wide;
    wide.words = 32;
    wide.width = 16;
    wide.max_any_expansion = 4;
    const auto wide_backgrounds = word::counting_backgrounds(wide.width);
    const auto wide_population =
        word::coverage_population(fault::FaultKind::CfidUp1, wide);
    const word::WordBatchRunner wide_runner(test, wide_backgrounds, wide,
                                            &serial);
    const double sparse_s = seconds_per_sweep(
        [&] { return wide_runner.run(wide_population).size(); });
    const double sparse_fps =
        static_cast<double>(wide_population.size()) / sparse_s;

    std::printf(
        "Sparse observation grids (March C-, width 8):\n"
        "  trace RSS, words=2048   : %8.1f MiB\n"
        "  words=4096 extraction   : %12.0f faults/sec\n"
        "Trace throughput (March C-, 32 words x 16 bits, %zu placements, "
        "1 thread):\n"
        "  sparse runs             : %12.0f faults/sec\n\n",
        sparse_mb, huge_fps, wide_population.size(), sparse_fps);

    benchutil::JsonSummary summary("word");
    summary.field("workload", "sparse_grids")
        .field("march", "March C-")
        .field("rss_words", big.words)
        .field("rss_width", big.width)
        .field("trace_peak_rss_mb_after", sparse_mb, 1)
        .field("huge_words", huge.words)
        .field("huge_population", huge_population.size())
        .field("huge_words_faults_per_sec", huge_fps)
        .field("sparse_words", wide.words)
        .field("sparse_width", wide.width)
        .field("sparse_population", wide_population.size())
        .field("sparse_trace_faults_per_sec", sparse_fps);
    summary.print();
}

/// Head-to-head: the per-fault scalar word sweep versus the word-lane
/// packed kernel on the exact covers_everywhere workload — CFid over the
/// counting backgrounds at width 8 (113 placements: 56 intra-word pairs,
/// 56 inter-word pairs, 1 cross pair) — plus a lane-width ablation on a
/// 32 words × 16 bits memory (1233 placements, ~20 plane words of lanes,
/// so the W=8 blocks actually fill; W=1 is the PR 2 packed baseline).
/// Emits a BENCH_word.json summary line (median-of-5 timings).
void print_scalar_vs_packed() {
    const auto& test = march::march_c_minus();
    word::WordRunOptions opts;  // 8 words × 8 bits
    const auto backgrounds = word::counting_backgrounds(opts.width);
    const auto population =
        word::coverage_population(fault::FaultKind::CfidUp1, opts);

    const double scalar_s = seconds_per_sweep([&] {
        bool all = true;
        for (const auto& fault : population)  // no short-circuit: every
            all &= word::detects(test, backgrounds, fault, opts);
        return all;  // fault must be simulated for a fair faults/sec
    });
    util::ThreadPool serial(1);
    const word::WordBatchRunner runner(test, backgrounds, opts, &serial);
    const double packed_s =
        seconds_per_sweep([&] { return runner.detects(population); });
    util::ThreadPool& pool = util::ThreadPool::global();
    const word::WordBatchRunner runner_mt(test, backgrounds, opts, &pool);
    const double packed_mt_s =
        seconds_per_sweep([&] { return runner_mt.detects(population); });

    // Lane-width ablation on a chunk-filling workload.
    word::WordRunOptions wide_opts;
    wide_opts.words = 32;
    wide_opts.width = 16;
    wide_opts.max_any_expansion = 4;
    const auto wide_backgrounds = word::counting_backgrounds(wide_opts.width);
    const auto wide_population =
        word::coverage_population(fault::FaultKind::CfidUp1, wide_opts);
    const word::WordBatchRunner runner_w1(test, wide_backgrounds, wide_opts,
                                          &serial, 1);
    const double w1_s = seconds_per_sweep(
        [&] { return runner_w1.detects(wide_population); });
    const int active_width = sim::active_lane_width();
    const word::WordBatchRunner runner_wide(test, wide_backgrounds,
                                            wide_opts, &serial,
                                            active_width);
    const double wide_s = seconds_per_sweep(
        [&] { return runner_wide.detects(wide_population); });

    const auto faults = static_cast<double>(population.size());
    const double scalar_fps = faults / scalar_s;
    const double packed_fps = faults / packed_s;
    const double packed_mt_fps = faults / packed_mt_s;
    const auto wide_faults = static_cast<double>(wide_population.size());
    const double w1_fps = wide_faults / w1_s;
    const double wide_fps = wide_faults / wide_s;
    std::printf(
        "Scalar vs packed word kernel (March C-, %d words x %d bits, "
        "%zu backgrounds, %zu CFid placements):\n"
        "  scalar          : %12.0f faults/sec\n"
        "  packed  (1 thr) : %12.0f faults/sec\n"
        "  packed  (%u thr) : %11.0f faults/sec\n"
        "  speedup         : %.1fx\n"
        "Lane-block width (March C-, %d words x %d bits, %zu placements, "
        "1 thread):\n"
        "  W=1 (PR2 base)  : %12.0f faults/sec\n"
        "  W=%d (active)    : %11.0f faults/sec\n"
        "  SIMD speedup    : %.2fx\n\n",
        opts.words, opts.width, backgrounds.size(), population.size(),
        scalar_fps, packed_fps, pool.worker_count(), packed_mt_fps,
        packed_fps / scalar_fps, wide_opts.words, wide_opts.width,
        wide_population.size(), w1_fps, active_width, wide_fps,
        wide_fps / w1_fps);

    // Engine transport head-to-heads on the coverage workload: one packed
    // session versus a RemoteBackend over loopback peers, healthy and
    // with one peer killed mid-sweep.
    const engine::Engine packed_engine(
        engine::EngineConfig{.backend = engine::BackendKind::Packed});
    constexpr int kRemotePeers = 2;
    net::LoopbackFleet fleet(kRemotePeers);
    const engine::Engine remote_engine(
        engine::make_remote_backend(fleet.take_fds()));
    // A fleet that loses peer 0 on its first query, with the graceful
    // degradation policy on: the resilient-throughput line.
    net::LoopbackFleet degraded_fleet(kRemotePeers,
                                      {{.die_after_queries = 1}, {}});
    engine::RemoteOptions degraded_options;
    degraded_options.degrade = engine::DegradePolicy::DegradeLocal;
    const engine::Engine degraded_engine(engine::make_remote_backend(
        degraded_fleet.take_fds(), degraded_options));

    benchutil::JsonSummary summary("word");
    summary.field("workload", "covers_everywhere")
        .field("march", "March C-")
        .field("words", opts.words)
        .field("width", opts.width)
        .field("backgrounds", backgrounds.size())
        .field("population", population.size())
        .field("scalar_faults_per_sec", scalar_fps)
        .field("packed_faults_per_sec", packed_fps)
        .field("speedup", packed_fps / scalar_fps, 2)
        .field("threads", pool.worker_count())
        .field("packed_mt_faults_per_sec", packed_mt_fps)
        .field("parallel_speedup", packed_mt_fps / packed_fps, 2)
        .field("lane_width", active_width)
        .field("width_words", wide_opts.words)
        .field("width_bits", wide_opts.width)
        .field("width_population", wide_population.size())
        .field("w1_faults_per_sec", w1_fps)
        .field("wide_faults_per_sec", wide_fps)
        .field("simd_speedup", wide_fps / w1_fps, 2)
        .remote_vs_packed(
            "coverage workload", faults, kRemotePeers,
            [&] {
                return packed_engine.detects(test, backgrounds, population,
                                             opts);
            },
            [&] {
                return remote_engine.detects(test, backgrounds, population,
                                             opts);
            })
        .degraded_vs_packed(
            "coverage workload", faults, kRemotePeers,
            [&] {
                return packed_engine.detects(test, backgrounds, population,
                                             opts);
            },
            [&] {
                return degraded_engine.detects(test, backgrounds,
                                               population, opts);
            });
    summary.print();
}

/// Trace-extraction head-to-head on the counting-background CFid sweep:
/// per-fault scalar word::guaranteed_trace versus one packed
/// WordBatchRunner::run() sweep (PR 4 acceptance: packed ≥ 10× scalar,
/// traces bit-identical — the identity is enforced by
/// tests/word_trace_test.cpp).
void print_trace_head_to_head() {
    const auto& test = march::march_c_minus();
    word::WordRunOptions opts;  // 8 words × 8 bits
    const auto backgrounds = word::counting_backgrounds(opts.width);
    const auto population =
        word::coverage_population(fault::FaultKind::CfidUp1, opts);

    const double scalar_s = seconds_per_sweep([&] {
        std::size_t observations = 0;
        for (const auto& fault : population)
            observations += word::guaranteed_trace(test, backgrounds, fault,
                                                   opts)
                                .failing_observations.size();
        return observations;
    });
    util::ThreadPool serial(1);
    const word::WordBatchRunner runner(test, backgrounds, opts, &serial);
    const double packed_s =
        seconds_per_sweep([&] { return runner.run(population).size(); });

    const auto faults = static_cast<double>(population.size());
    const double scalar_fps = faults / scalar_s;
    const double packed_fps = faults / packed_s;
    std::printf(
        "Guaranteed-trace extraction (March C-, %d words x %d bits, "
        "%zu backgrounds, %zu CFid placements, 1 thread):\n"
        "  scalar oracle   : %12.0f faults/sec\n"
        "  packed          : %12.0f faults/sec\n"
        "  packed/scalar   : %.1fx\n\n",
        opts.words, opts.width, backgrounds.size(), population.size(),
        scalar_fps, packed_fps, packed_fps / scalar_fps);

    benchutil::JsonSummary summary("word");
    summary.field("workload", "trace_extraction")
        .field("march", "March C-")
        .field("words", opts.words)
        .field("width", opts.width)
        .field("backgrounds", backgrounds.size())
        .field("population", population.size())
        .field("trace_scalar_faults_per_sec", scalar_fps)
        .field("trace_packed_faults_per_sec", packed_fps)
        .field("trace_speedup", packed_fps / scalar_fps, 2);
    summary.print();
}

/// Retention: Detects of MATS+Del (two del elements, one wait per word
/// each) over the SAF population of a 256 words × 8 bits memory under the
/// solid background, one thread. A wait costs the DRF entries of the
/// chunk, none here, so the del elements add no per-bit scan. Emits the
/// `retention` BENCH_word.json line (median-of-5 timings).
void print_retention() {
    const auto& test = march::find_march_test("MATS+Del").test;
    word::WordRunOptions opts;
    opts.words = 256;
    opts.width = 8;
    const auto backgrounds = word::solid_background(opts.width);
    const auto population =
        engine::Engine()
            .word_population(fault::parse_fault_kinds("SAF"), opts)
            ->faults;
    util::ThreadPool serial(1);
    const word::WordBatchRunner runner(test, backgrounds, opts, &serial);
    const double fps =
        static_cast<double>(population.size()) /
        seconds_per_sweep([&] { return runner.detects(population); });
    std::printf(
        "Retention (MATS+Del, %d words x %d bits, solid, %zu SAF "
        "placements, 1 thread):\n"
        "  packed          : %12.0f faults/sec\n\n",
        opts.words, opts.width, population.size(), fps);

    benchutil::JsonSummary summary("word");
    summary.field("workload", "retention")
        .field("march", "MATS+Del")
        .field("words", opts.words)
        .field("width", opts.width)
        .field("backgrounds", backgrounds.size())
        .field("population", population.size())
        .field("retention_faults_per_sec", fps);
    summary.print();
}

/// Sweep's word leg: the 16 library tests × CFid Traces on 4 words × 8
/// bits under the counting backgrounds, each through a local Engine
/// session, as perfbench's sweep workload runs them (its
/// `engine.local_word` span). Faults per second over the whole campaign,
/// on a one-worker pool and on the process-wide pool. Emits the
/// `sweep_word_leg` BENCH_word.json line (median-of-5 timings); `host`
/// names the CPU count and the widest vector ISA.
void print_sweep_word_leg() {
    const word::WordRunOptions opts{.words = 4, .width = 8};
    const auto backgrounds = word::counting_backgrounds(opts.width);
    const auto kinds = fault::parse_fault_kinds("CFid");
    std::vector<engine::Query> campaign;
    for (const auto& named : march::known_march_tests()) {
        engine::Query query;
        query.test = named.test;
        query.universe = engine::WordUniverse{backgrounds, opts};
        query.want = engine::Want::Traces;
        query.kinds = kinds;
        campaign.push_back(std::move(query));
    }
    util::ThreadPool serial(1);
    const engine::Engine one(engine::EngineConfig{.pool = &serial});
    util::ThreadPool& pool = util::ThreadPool::global();
    const engine::Engine many(engine::EngineConfig{.pool = &pool});
    const auto sweep = [&](const engine::Engine& session) {
        std::size_t traces = 0;
        for (const engine::Query& query : campaign)
            traces += session.run(query).word_traces.size();
        return traces;
    };
    const std::size_t population =
        one.word_population(kinds, opts)->faults.size();
    const auto faults = static_cast<double>(population * campaign.size());
    const double fps = faults / seconds_per_sweep([&] { return sweep(one); });
    const double mt_fps =
        faults / seconds_per_sweep([&] { return sweep(many); });
    const char* isa = sim::cpu_has_avx512f() ? "avx512f"
                      : sim::cpu_has_avx2()  ? "avx2"
                                             : "generic";
    const std::string host = std::to_string(
                                 std::thread::hardware_concurrency()) +
                             "-CPU " + isa;
    std::printf(
        "Sweep word leg (%zu library tests x %zu CFid placements, %d words "
        "x %d bits, counting, Traces):\n"
        "  1 thread        : %12.0f faults/sec\n"
        "  %u threads       : %12.0f faults/sec\n\n",
        campaign.size(), population, opts.words, opts.width, fps,
        pool.worker_count(), mt_fps);

    benchutil::JsonSummary summary("word");
    summary.field("workload", "sweep_word_leg")
        .field("host", host)
        .field("tests", campaign.size())
        .field("kinds", "CFid")
        .field("words", opts.words)
        .field("width", opts.width)
        .field("backgrounds", backgrounds.size())
        .field("population", population)
        .field("sweep_faults_per_sec", fps)
        .field("threads", pool.worker_count())
        .field("sweep_mt_faults_per_sec", mt_fps);
    summary.print();
}

void print_summary() {
    TextTable table;
    table.set_header({"width", "backgrounds", "ops/word",
                      "intra-word CFid<^,1>"});
    for (int width : {4, 8, 16}) {
        const auto& test = march::march_c_minus();
        word::WordRunOptions opts;
        opts.width = width;
        for (bool counting : {false, true}) {
            const auto backgrounds = counting
                                         ? word::counting_backgrounds(width)
                                         : word::solid_background(width);
            table.add_row(
                {std::to_string(width),
                 counting ? "counting (" +
                                std::to_string(backgrounds.size()) + ")"
                          : "solid (1)",
                 std::to_string(word::word_complexity(test, backgrounds)),
                 engine::Engine::global().covers_everywhere(
                     test, backgrounds, fault::FaultKind::CfidUp1, opts)
                     ? "covered"
                     : "ESCAPES"});
        }
    }
    std::printf("March C- lifted to word-oriented memories:\n\n%s\n",
                table.str().c_str());
}

void BM_WordDetect(benchmark::State& state) {
    const int width = static_cast<int>(state.range(0));
    const auto& test = march::march_c_minus();
    const auto backgrounds = word::counting_backgrounds(width);
    word::WordRunOptions opts;
    opts.width = width;
    const auto fault = word::InjectedBitFault::coupling(
        fault::FaultKind::CfidUp1, {opts.words / 2, 0}, {opts.words / 2, 1});
    for (auto _ : state)
        benchmark::DoNotOptimize(word::detects(test, backgrounds, fault, opts));
}
BENCHMARK(BM_WordDetect)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_WordCoversIntraWord(benchmark::State& state) {
    const int width = static_cast<int>(state.range(0));
    const auto& test = march::march_c_minus();
    const auto backgrounds = word::counting_backgrounds(width);
    word::WordRunOptions opts;
    opts.width = width;
    const engine::Engine& session = engine::Engine::global();
    for (auto _ : state)
        benchmark::DoNotOptimize(session.covers_everywhere(
            test, backgrounds, fault::FaultKind::CfidUp1, opts));
}
BENCHMARK(BM_WordCoversIntraWord)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_sparse_grids();  // first: RSS legs need a quiet high-water mark
    print_summary();
    print_scalar_vs_packed();
    print_trace_head_to_head();
    print_retention();
    print_sweep_word_leg();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
