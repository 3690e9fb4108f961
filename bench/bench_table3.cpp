/// \file bench_table3.cpp
/// Regenerates the paper's Table 3: for each of the six fault lists, the
/// generated March test, its complexity, the generation CPU time, the §6
/// non-redundancy verdict and the known equivalent from the literature.
/// Then prints the `BENCH_table3.json` line: whole tables per second (the
/// median of five timings of all six rows) and the median ms of each row.
/// Afterwards google-benchmark times the full generation per row.
///
/// The process runs at one simulation thread (it sets MTG_THREADS=1
/// before the pool starts), the setting of the benchmark's generate
/// workload: a generator probe is one chunk and runs inline, so more
/// threads would time only fork/join.
///
///   ./bench_table3 --benchmark_filter='^$'   # table + summary line only

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_timing.hpp"
#include "core/generator.hpp"
#include "fault/fault_list.hpp"
#include "march/library.hpp"
#include "util/table.hpp"

namespace {

using mtg::core::GenerationResult;
using mtg::core::Generator;

void print_table3() {
    mtg::TextTable table;
    table.set_header({"Fault list", "Generated March test", "n", "CPU(s)",
                      "complete", "non-red.", "known equivalent"});

    Generator generator;
    for (const auto& row : mtg::fault::table3_fault_lists()) {
        const GenerationResult result = generator.generate(row.kinds);
        std::string known = row.known_equivalent;
        if (row.known_complexity > 0)
            known += " (" + std::to_string(row.known_complexity) + "n)";
        char seconds[32];
        std::snprintf(seconds, sizeof seconds, "%.3f", result.seconds);
        table.add_row({row.name,
                       result.test.str(mtg::march::Notation::Unicode),
                       std::to_string(result.complexity) + "n", seconds,
                       result.redundancy.complete ? "yes" : "NO",
                       result.redundancy.non_redundant ? "yes" : "NO", known});
    }
    std::printf("Table 3 — automatically generated March tests\n"
                "(paper reference: 4n/5n/6n/6n/10n/5n in 0.49-0.85 s on a "
                "PIII-650 laptop)\n\n%s\n", table.str().c_str());
}

/// The BENCH_table3.json line: whole-table throughput, then each row.
void print_summary() {
    const auto& rows = mtg::fault::table3_fault_lists();
    const Generator generator;
    const double table_sec = mtg::benchutil::seconds_per_sweep([&] {
        int complexity = 0;
        for (const auto& row : rows)
            complexity += generator.generate(row.kinds).complexity;
        return complexity;
    });
    std::printf("Whole Table 3 (6 rows, 1 thread): %.2f ms/table "
                "(%.1f tables/sec)\n",
                table_sec * 1e3, 1.0 / table_sec);
    mtg::benchutil::JsonSummary summary("table3");
    summary.field("workload", "table3")
        .field("threads", 1)
        .field("tables_per_sec", 1.0 / table_sec, 1)
        .field("table_ms", table_sec * 1e3, 3);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const double row_sec = mtg::benchutil::seconds_per_sweep(
            [&] { return generator.generate(rows[r].kinds).complexity; });
        std::printf("  row %zu %-22s %8.3f ms\n", r + 1, rows[r].name.c_str(),
                    row_sec * 1e3);
        const std::string key = "row" + std::to_string(r + 1) + "_ms";
        summary.field(key.c_str(), row_sec * 1e3, 3);
    }
    std::printf("\n");
    summary.print();
}

void BM_GenerateRow(benchmark::State& state) {
    const auto& row = mtg::fault::table3_fault_lists()
        [static_cast<std::size_t>(state.range(0))];
    Generator generator;
    for (auto _ : state) {
        benchmark::DoNotOptimize(generator.generate(row.kinds));
    }
    state.SetLabel(row.name);
}
BENCHMARK(BM_GenerateRow)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    setenv("MTG_THREADS", "1", 1);
    print_table3();
    print_summary();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
