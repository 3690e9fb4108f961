/// \file bench_sim.cpp
/// Substrate ablation: throughput of the fault simulator (the §6 validation
/// engine) versus memory size and March-test complexity, plus the cost of a
/// full covers_everywhere sweep as used by the generator's validation gate.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_timing.hpp"

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "net/remote_backend.hpp"
#include "net/worker.hpp"
#include "sim/batch_runner.hpp"
#include "sim/lane_dispatch.hpp"
#include "sim/march_runner.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mtg;
using benchutil::seconds_per_sweep;

void print_summary() {
    TextTable table;
    table.set_header({"March test", "n", "detects SAF0@mid",
                      "detects CFid<^,0>@(1,2)"});
    for (const char* name : {"MATS", "MATS++", "March C-", "March SS"}) {
        const auto& test = march::find_march_test(name).test;
        table.add_row(
            {name, std::to_string(test.complexity()),
             sim::detects(test, sim::InjectedFault::single(
                                    fault::FaultKind::Saf0, 4))
                 ? "yes"
                 : "no",
             sim::detects(test, sim::InjectedFault::coupling(
                                    fault::FaultKind::CfidUp0, 1, 2))
                 ? "yes"
                 : "no"});
    }
    std::printf("Fault simulator sanity snapshot:\n\n%s\n", table.str().c_str());
}

/// Head-to-head: the per-fault scalar sweep versus one batched pass over
/// the full two-cell fault population of an 8-cell memory (the exact
/// workload covers_everywhere runs inside the generator's validation
/// gate), a lane-width ablation on the n=256 population (65k faults, deep
/// enough that every W=8 block is full — the PR 2 packed kernel is the
/// W=1 row), plus a threads=1 versus threads=N shard comparison on the
/// n=64 population where the chunk grid is deep enough to feed every
/// core. Emits a machine-readable BENCH_sim.json summary line
/// (median-of-5 timings).
void print_scalar_vs_batched() {
    const auto& test = march::march_c_minus();
    const sim::RunOptions opts{.memory_size = 8, .max_any_expansion = 6};
    const auto population =
        sim::full_population(fault::FaultKind::CfidUp0, opts.memory_size);

    const double scalar_s = seconds_per_sweep([&] {
        bool all = true;
        for (const auto& fault : population)
            all &= sim::detects(test, fault, opts);  // no short-circuit:
        return all;  // every fault must be simulated for a fair faults/sec
    });
    util::ThreadPool serial(1);
    const sim::BatchRunner runner(test, opts, &serial);
    const double batched_s =
        seconds_per_sweep([&] { return runner.detects(population); });

    // Lane-width ablation: n=256 -> 65280 two-cell faults; W=1 is the
    // PR 2 packed baseline, the active width is the SIMD lane-block
    // engine, both on one thread so the ratio isolates the block width.
    const sim::RunOptions opts256{.memory_size = 256, .max_any_expansion = 6};
    const auto population256 =
        sim::full_population(fault::FaultKind::CfidUp0, opts256.memory_size);
    const sim::BatchRunner runner_w1(test, opts256, &serial, 1);
    const double w1_s = seconds_per_sweep(
        [&] { return runner_w1.detects(population256); });
    const int active_width = sim::active_lane_width();
    const sim::BatchRunner runner_wide(test, opts256, &serial, active_width);
    const double wide_s = seconds_per_sweep(
        [&] { return runner_wide.detects(population256); });

    // Parallel shard comparison: n=64 -> 4032 two-cell faults.
    const sim::RunOptions opts64{.memory_size = 64, .max_any_expansion = 6};
    const auto population64 =
        sim::full_population(fault::FaultKind::CfidUp0, opts64.memory_size);
    const sim::BatchRunner runner64_serial(test, opts64, &serial);
    const double serial64_s = seconds_per_sweep(
        [&] { return runner64_serial.detects(population64); });
    util::ThreadPool& pool = util::ThreadPool::global();
    const sim::BatchRunner runner64_parallel(test, opts64, &pool);
    const double parallel64_s = seconds_per_sweep(
        [&] { return runner64_parallel.detects(population64); });

    const auto faults = static_cast<double>(population.size());
    const double scalar_fps = faults / scalar_s;
    const double batched_fps = faults / batched_s;
    const auto faults256 = static_cast<double>(population256.size());
    const double w1_fps = faults256 / w1_s;
    const double wide_fps = faults256 / wide_s;
    const auto faults64 = static_cast<double>(population64.size());
    const double serial64_fps = faults64 / serial64_s;
    const double parallel64_fps = faults64 / parallel64_s;
    std::printf(
        "Scalar vs batched kernel (March C-, n=%d, %zu two-cell faults):\n"
        "  scalar          : %12.0f faults/sec\n"
        "  batched (1 thr) : %12.0f faults/sec\n"
        "  speedup         : %.1fx\n"
        "Lane-block width (March C-, n=%d, %zu two-cell faults, 1 thread):\n"
        "  W=1 (PR2 base)  : %12.0f faults/sec\n"
        "  W=%d (active)    : %11.0f faults/sec\n"
        "  SIMD speedup    : %.2fx\n"
        "Thread sharding (March C-, n=%d, %zu two-cell faults):\n"
        "  threads=1       : %12.0f faults/sec\n"
        "  threads=%-2u      : %12.0f faults/sec\n"
        "  parallel speedup: %.2fx\n\n",
        opts.memory_size, population.size(), scalar_fps, batched_fps,
        batched_fps / scalar_fps, opts256.memory_size, population256.size(),
        w1_fps, active_width, wide_fps, wide_fps / w1_fps,
        opts64.memory_size, population64.size(), serial64_fps,
        pool.worker_count(), parallel64_fps, parallel64_fps / serial64_fps);

    // Engine transport head-to-heads on the n=64 workload: one packed
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

    benchutil::JsonSummary summary("sim");
    summary.field("workload", "covers_everywhere")
        .field("march", "March C-")
        .field("memory_size", opts.memory_size)
        .field("population", population.size())
        .field("scalar_faults_per_sec", scalar_fps)
        .field("batched_faults_per_sec", batched_fps)
        .field("speedup", batched_fps / scalar_fps, 2)
        .field("lane_width", active_width)
        .field("width_memory_size", opts256.memory_size)
        .field("width_population", population256.size())
        .field("w1_faults_per_sec", w1_fps)
        .field("wide_faults_per_sec", wide_fps)
        .field("simd_speedup", wide_fps / w1_fps, 2)
        .field("shard_memory_size", opts64.memory_size)
        .field("shard_population", population64.size())
        .field("threads", pool.worker_count())
        .field("batched_1thread_faults_per_sec", serial64_fps)
        .field("batched_mt_faults_per_sec", parallel64_fps)
        .field("parallel_speedup", parallel64_fps / serial64_fps, 2)
        .remote_vs_packed(
            "n=64 covers sweep", faults64, kRemotePeers,
            [&] { return packed_engine.detects(test, population64, opts64); },
            [&] {
                return remote_engine.detects(test, population64, opts64);
            })
        .degraded_vs_packed(
            "n=64 covers sweep", faults64, kRemotePeers,
            [&] { return packed_engine.detects(test, population64, opts64); },
            [&] {
                return degraded_engine.detects(test, population64, opts64);
            });
    summary.print();
}

void BM_SingleRun(benchmark::State& state) {
    const auto& test = march::march_c_minus();
    const auto fault =
        sim::InjectedFault::coupling(fault::FaultKind::CfidUp0, 1, 2);
    sim::RunOptions opts;
    opts.memory_size = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::run_once(test, {fault}, 0u, opts));
    state.SetItemsProcessed(state.iterations() * opts.memory_size *
                            test.complexity());
}
BENCHMARK(BM_SingleRun)->Arg(8)->Arg(64)->Arg(512)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_DetectsWithExpansions(benchmark::State& state) {
    const auto& test = march::march_ss();  // two ⇕ elements -> 4 expansions
    const auto fault =
        sim::InjectedFault::coupling(fault::FaultKind::CfstS1F0, 2, 5);
    sim::RunOptions opts;
    opts.memory_size = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::detects(test, fault, opts));
}
BENCHMARK(BM_DetectsWithExpansions)->Arg(8)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_CoversEverywhere(benchmark::State& state) {
    const auto& test = march::march_c_minus();
    sim::RunOptions opts;
    opts.memory_size = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::covers_everywhere(
            test, fault::FaultKind::CfidUp0, opts));
}
BENCHMARK(BM_CoversEverywhere)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_BatchDetects(benchmark::State& state) {
    const auto& test = march::march_c_minus();
    sim::RunOptions opts;
    opts.memory_size = static_cast<int>(state.range(0));
    const sim::BatchRunner runner(test, opts);
    const auto population =
        sim::full_population(fault::FaultKind::CfidUp0, opts.memory_size);
    for (auto _ : state) benchmark::DoNotOptimize(runner.detects(population));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(population.size()));
}
BENCHMARK(BM_BatchDetects)->Arg(8)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_WellFormedCheck(benchmark::State& state) {
    const auto& test = march::find_march_test(
        state.range(0) == 0 ? "MATS" : "March SS").test;
    for (auto _ : state) benchmark::DoNotOptimize(sim::is_well_formed(test));
    state.SetLabel(state.range(0) == 0 ? "MATS" : "March SS");
}
BENCHMARK(BM_WellFormedCheck)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
    print_summary();
    print_scalar_vs_batched();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
