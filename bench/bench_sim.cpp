/// \file bench_sim.cpp
/// Substrate ablation: throughput of the fault simulator (the §6 validation
/// engine) versus memory size and March-test complexity, plus the cost of
/// covers_everywhere as the generator's validation gate asks it (one
/// placement per class).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_timing.hpp"

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "net/remote_backend.hpp"
#include "net/worker.hpp"
#include "sim/lane_dispatch.hpp"
#include "sim/march_runner.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mtg;
using benchutil::seconds_per_sweep;

/// Every ordered (aggressor, victim) placement of CFid<↑;0> on an n-cell
/// memory: the throughput workload. (A kind query itself simulates one
/// placement per class, two for this kind.)
std::vector<sim::InjectedFault> cfid_population(int cells) {
    return sim::full_population(fault::FaultKind::CfidUp0, cells);
}

/// Every placement of every kind of a fault family on an n-cell memory.
std::vector<sim::InjectedFault> family_population(const char* family,
                                                  int cells) {
    std::vector<sim::InjectedFault> population;
    for (const fault::FaultKind kind : fault::parse_fault_kinds(family)) {
        const auto placed = sim::full_population(kind, cells);
        population.insert(population.end(), placed.begin(), placed.end());
    }
    return population;
}

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
/// every placement of a two-cell kind on an 8-cell memory (56 faults; a
/// kind query itself simulates its 2 classes), a lane-width ablation on
/// the n=256 population (65k faults, deep enough that every W=8 block is
/// full — one plane word per block is the W=1 row), plus a threads=1
/// versus threads=N shard comparison on the n=64 population where the
/// chunk grid is deep enough to feed every core. Every batched leg is an
/// Engine bit session's Detects on the packed backend, pinned to a pool
/// and a lane width. Emits a machine-readable BENCH_sim.json summary line
/// (median-of-5 timings).
void print_scalar_vs_batched() {
    const auto& test = march::march_c_minus();
    const sim::RunOptions opts{.memory_size = 8, .max_any_expansion = 6};
    const auto population = cfid_population(opts.memory_size);

    const double scalar_s = seconds_per_sweep([&] {
        bool all = true;
        for (const auto& fault : population)
            all &= sim::detects(test, fault, opts);  // no short-circuit:
        return all;  // every fault must be simulated for a fair faults/sec
    });
    util::ThreadPool serial(1);
    const engine::Engine serial_engine(engine::EngineConfig{.pool = &serial});
    const double batched_s = seconds_per_sweep(
        [&] { return serial_engine.detects(test, population, opts); });

    // Lane-width ablation: n=256 -> 65280 two-cell faults; W=1 is one
    // plane word per block, the active width is the SIMD lane-block
    // engine, both on one thread so the ratio isolates the block width.
    const sim::RunOptions opts256{.memory_size = 256, .max_any_expansion = 6};
    const auto population256 = cfid_population(opts256.memory_size);
    const engine::Engine engine_w1(
        engine::EngineConfig{.pool = &serial, .lane_width = 1});
    const double w1_s = seconds_per_sweep(
        [&] { return engine_w1.detects(test, population256, opts256); });
    const int active_width = sim::active_lane_width();
    const engine::Engine engine_wide(
        engine::EngineConfig{.pool = &serial, .lane_width = active_width});
    const double wide_s = seconds_per_sweep(
        [&] { return engine_wide.detects(test, population256, opts256); });

    // Parallel shard comparison: n=64 -> 4032 two-cell faults.
    const sim::RunOptions opts64{.memory_size = 64, .max_any_expansion = 6};
    const auto population64 = cfid_population(opts64.memory_size);
    const double serial64_s = seconds_per_sweep(
        [&] { return serial_engine.detects(test, population64, opts64); });
    util::ThreadPool& pool = util::ThreadPool::global();
    const engine::Engine parallel_engine(
        engine::EngineConfig{.pool = &pool});
    const double parallel64_s = seconds_per_sweep(
        [&] { return parallel_engine.detects(test, population64, opts64); });

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
        "  W=1             : %12.0f faults/sec\n"
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

/// State coupling against transition coupling on one kernel: Engine bit
/// Detects of March C- over the CFst and the CFid populations of a 64-cell
/// memory (16,128 placements each), one-thread pool. A CFst fault is
/// enforced by the writes to its aggressor and victim cells only, so its
/// throughput should track CFid's. Emits the `static_coupling`
/// BENCH_sim.json line (median-of-5 timings).
void print_static_coupling() {
    const auto& test = march::march_c_minus();
    const sim::RunOptions opts{.memory_size = 64, .max_any_expansion = 6};
    util::ThreadPool serial(1);
    const engine::Engine session(engine::EngineConfig{.pool = &serial});
    const auto cfst = family_population("CFst", opts.memory_size);
    const auto cfid = family_population("CFid", opts.memory_size);
    const double cfst_fps =
        static_cast<double>(cfst.size()) /
        seconds_per_sweep([&] { return session.detects(test, cfst, opts); });
    const double cfid_fps =
        static_cast<double>(cfid.size()) /
        seconds_per_sweep([&] { return session.detects(test, cfid, opts); });
    std::printf(
        "State vs transition coupling (March C-, n=%d, 1 thread):\n"
        "  CFst (%zu faults): %12.0f faults/sec\n"
        "  CFid (%zu faults): %12.0f faults/sec\n\n",
        opts.memory_size, cfst.size(), cfst_fps, cfid.size(), cfid_fps);

    benchutil::JsonSummary summary("sim");
    summary.field("workload", "static_coupling")
        .field("march", "March C-")
        .field("memory_size", opts.memory_size)
        .field("cfst_population", cfst.size())
        .field("cfst_faults_per_sec", cfst_fps)
        .field("cfid_population", cfid.size())
        .field("cfid_faults_per_sec", cfid_fps);
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
    const engine::Engine& session = engine::Engine::global();
    for (auto _ : state)
        benchmark::DoNotOptimize(session.covers_everywhere(
            test, fault::FaultKind::CfidUp0, opts));
}
BENCHMARK(BM_CoversEverywhere)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_BatchDetects(benchmark::State& state) {
    const auto& test = march::march_c_minus();
    sim::RunOptions opts;
    opts.memory_size = static_cast<int>(state.range(0));
    const engine::Engine session;
    const auto population = cfid_population(opts.memory_size);
    for (auto _ : state)
        benchmark::DoNotOptimize(session.detects(test, population, opts));
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
    print_static_coupling();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
