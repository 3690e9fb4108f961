#pragma once

/// \file bench_timing.hpp
/// Shared timing + summary-emission helpers for the hand-rolled
/// head-to-head comparisons the benches print before handing over to
/// Google Benchmark.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace mtg::benchutil {

/// Peak RSS of the process in MiB (getrusage ru_maxrss; 0 where
/// unavailable). The high-water mark is monotonic: sample before and
/// after a leg and subtract, and run memory-sensitive legs before
/// anything that inflates the peak for the whole process.
inline double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0)
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
    return 0.0;
}

/// Seconds per invocation of `sweep`: one warm-up, then enough
/// repetitions for a stable figure.
template <typename Sweep>
double seconds_per_sweep_once(Sweep&& sweep) {
    using clock = std::chrono::steady_clock;
    sweep();
    int reps = 1;
    for (;;) {
        const auto start = clock::now();
        for (int r = 0; r < reps; ++r) benchmark::DoNotOptimize(sweep());
        const std::chrono::duration<double> elapsed = clock::now() - start;
        if (elapsed.count() > 0.2)
            return elapsed.count() / static_cast<double>(reps);
        reps *= 4;
    }
}

/// Median of five independent measurements — the figure the BENCH_*.json
/// summary lines report, so one noisy neighbour on a shared box cannot
/// fake a regression (or an improvement).
template <typename Sweep>
double seconds_per_sweep(Sweep&& sweep) {
    double samples[5];
    for (double& s : samples) s = seconds_per_sweep_once(sweep);
    std::sort(std::begin(samples), std::end(samples));
    return samples[2];
}

/// Builder for the one-line machine-readable summaries
/// (`BENCH_<name>.json {...}`) CI greps out of the bench logs. Keeps the
/// key order of insertion; values are emitted as raw JSON numbers /
/// strings.
class JsonSummary {
public:
    explicit JsonSummary(std::string tag) : tag_(std::move(tag)) {}

    JsonSummary& field(const char* key, const std::string& value) {
        return raw(key, "\"" + value + "\"");
    }
    JsonSummary& field(const char* key, const char* value) {
        return field(key, std::string(value));
    }
    JsonSummary& field(const char* key, long long value) {
        return raw(key, std::to_string(value));
    }
    JsonSummary& field(const char* key, unsigned long long value) {
        return raw(key, std::to_string(value));
    }
    JsonSummary& field(const char* key, int value) {
        return field(key, static_cast<long long>(value));
    }
    JsonSummary& field(const char* key, unsigned value) {
        return field(key, static_cast<unsigned long long>(value));
    }
    JsonSummary& field(const char* key, std::size_t value) {
        return field(key, static_cast<unsigned long long>(value));
    }
    /// Doubles carry an explicit precision (decimal places).
    JsonSummary& field(const char* key, double value, int precision = 0) {
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
        return raw(key, buffer);
    }

    /// "BENCH_<tag>.json {...}" plus a trailing blank line, mirroring the
    /// historical hand-rolled format byte-for-byte where it matters (the
    /// CI greps for the BENCH_<tag>.json prefix). Also appends the object
    /// to $MTG_BENCH_DIR/BENCH_<tag>.json (default: the current
    /// directory) as one JSON object per line — the file the committed
    /// dev-box baselines and the CI regression diff (scripts/
    /// bench_diff.py) read. The first summary of a tag per process
    /// truncates the file so stale lines from a previous run never mix
    /// with fresh ones.
    void print() const {
        std::printf("BENCH_%s.json {%s}\n\n", tag_.c_str(), body_.c_str());
        const char* dir = std::getenv("MTG_BENCH_DIR");
        const std::string path = std::string(dir && *dir ? dir : ".") +
                                 "/BENCH_" + tag_ + ".json";
        static std::set<std::string> seen;
        const char* mode = seen.insert(path).second ? "w" : "a";
        if (std::FILE* f = std::fopen(path.c_str(), mode)) {
            std::fprintf(f, "{%s}\n", body_.c_str());
            std::fclose(f);
        }
    }

    /// The remote-transport head-to-head: one packed session versus a
    /// RemoteBackend over same-process loopback peers — the serialize +
    /// frame + scatter/gather cost of the socket transport on top of the
    /// identical packed evaluation.
    template <typename PackedSweep, typename RemoteSweep>
    JsonSummary& remote_vs_packed(const char* workload, double faults,
                                  int peers, PackedSweep&& packed,
                                  RemoteSweep&& remote) {
        const double packed_fps = faults / seconds_per_sweep(packed);
        const double remote_fps = faults / seconds_per_sweep(remote);
        std::printf(
            "Remote transport (%s, %d loopback peers):\n"
            "  packed          : %12.0f faults/sec\n"
            "  remote          : %12.0f faults/sec\n"
            "  remote/packed   : %.2fx\n\n",
            workload, peers, packed_fps, remote_fps,
            remote_fps / packed_fps);
        return field("remote_peers", peers)
            .field("engine_remote_faults_per_sec", remote_fps)
            .field("remote_vs_packed", remote_fps / packed_fps, 2);
    }

    /// The fault-tolerance head-to-head: the same remote sweep, but one
    /// peer of the fleet is killed mid-sweep and DegradePolicy::
    /// DegradeLocal is on — the price of detection, range requeue and
    /// (should the fleet empty) the coordinator-local fallback, relative
    /// to an undisturbed packed session.
    template <typename PackedSweep, typename DegradedSweep>
    JsonSummary& degraded_vs_packed(const char* workload, double faults,
                                    int peers, PackedSweep&& packed,
                                    DegradedSweep&& degraded) {
        const double packed_fps = faults / seconds_per_sweep(packed);
        const double degraded_fps = faults / seconds_per_sweep(degraded);
        std::printf(
            "Degraded fleet (%s, %d peers, one killed mid-sweep):\n"
            "  packed          : %12.0f faults/sec\n"
            "  degraded remote : %12.0f faults/sec\n"
            "  degraded/packed : %.2fx\n\n",
            workload, peers, packed_fps, degraded_fps,
            degraded_fps / packed_fps);
        return field("degraded_peers", peers)
            .field("engine_degraded_faults_per_sec", degraded_fps)
            .field("degraded_vs_packed", degraded_fps / packed_fps, 2);
    }

private:
    JsonSummary& raw(const char* key, const std::string& json) {
        if (!body_.empty()) body_ += ',';
        body_ += '"';
        body_ += key;
        body_ += "\":";
        body_ += json;
        return *this;
    }

    std::string tag_;
    std::string body_;
};

}  // namespace mtg::benchutil
