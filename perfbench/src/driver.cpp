/// \file driver.cpp
/// Load generator of the benchmark: runs one workload against the
/// library from outside, checks every output, and prints one JSON record
/// of raw samples (run.py turns it into metrics).
///
///   perfbench_driver <generate|sweep> [--seed S]
///       [--seconds T] [--mode run|setup|check] [--trace-file PATH]
///   perfbench_driver plan <generate|sweep> [--seed S]
///
/// Modes: `run` sets up, warms up, then measures for T seconds; `setup`
/// only times the set-up (run.py starts several fresh processes for the
/// setup_s median); `check` runs a few requests with every output check
/// and exits 1 on any failure. With --trace-file the run alternates
/// traced and untraced requests (the difference is the tracing
/// overhead), writes the spans, then runs the layer probes.
///
/// The process pins itself to one CPU before it starts the program, so
/// every thread it starts (fleet peers included) shares that CPU: no
/// hand-off waits for another vCPU to be woken, and the CPU time a
/// request costs does not depend on where the host placed the threads.
/// run.py sets the lane count (MTG_THREADS=1).

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/generator.hpp"
#include "engine/engine.hpp"
#include "fault/fault_list.hpp"
#include "fault/kinds.hpp"
#include "fault/test_pattern.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "net/remote_backend.hpp"
#include "net/worker.hpp"
#include "plan.hpp"
#include "setcover/coverage_matrix.hpp"
#include "sim/lane_dispatch.hpp"
#include "synth/beam_search.hpp"
#include "synth/scorer.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "word/background.hpp"

namespace perfbench {
namespace {

using namespace mtg;

/// CPU time of the whole process (every thread), in seconds. With
/// paravirtual steal accounting it excludes the time the host ran
/// something else on this guest's vCPUs.
double process_cpu_s() {
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

/// Stolen and total jiffies of all CPUs (/proc/stat).
std::pair<double, double> steal_jiffies() {
    std::ifstream file("/proc/stat");
    std::string label;
    file >> label;
    double total = 0.0;
    double steal = 0.0;
    for (int field = 0; field < 8; ++field) {
        double value = 0.0;
        if (!(file >> value)) break;
        total += value;
        if (field == 7) steal = value;
    }
    return {steal, total};
}

// ---- output ---------------------------------------------------------------

std::string quote(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string number(double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string array(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + number(values[i]);
    return out + "]";
}

/// Raw samples of one run, printed as one JSON line.
struct Report {
    double setup_s{0.0};      ///< wall time of the set-up
    double setup_cpu_s{0.0};  ///< process CPU time of the set-up
    std::size_t attempted{0};
    std::size_t failed{0};
    std::size_t completed{0};
    double elapsed_s{0.0};  ///< wall time of the timed loop
    double cpu_s{0.0};      ///< process CPU time of the timed loop
    /// Share of the guest's CPU time the host stole during the timed loop.
    double steal_share{0.0};
    /// Per completed request: start and end of its program calls in
    /// seconds from the start of the timed loop, the process CPU time
    /// they took, and 1 where the request ran traced.
    std::vector<double> start_s;
    std::vector<double> done_s;
    std::vector<double> cpu_ms;
    std::vector<double> traced;
    double peak_rss_mb{0.0};  ///< read at the end of the timed loop
    std::map<std::string, double> values;
    std::vector<std::string> errors;

    void fail(const std::string& message) {
        ++failed;
        if (errors.size() < 8) errors.push_back(message);
    }
};

std::string read_first(const char* path, const std::string& key) {
    std::ifstream file(path);
    std::string line;
    while (std::getline(file, line)) {
        if (line.rfind(key, 0) != 0) continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
    }
    return "unknown";
}

const char* isa_name(sim::LaneIsa isa) {
    switch (isa) {
        case sim::LaneIsa::Avx512: return "avx512";
        case sim::LaneIsa::Avx2: return "avx2";
        case sim::LaneIsa::Generic: return "generic";
        case sim::LaneIsa::Auto: break;
    }
    return "auto";
}

/// The CPUs the process could run on at start, and the one it runs on.
struct Placement {
    cpu_set_t host{};
    int host_cpus{0};
    int cpu{-1};
};

Placement& placement() {
    static Placement instance;
    return instance;
}

/// Pins the process to the last CPU it may run on. Only the main thread
/// exists yet, and every thread started later inherits its mask.
void pin_to_one_cpu() {
    Placement& p = placement();
    CPU_ZERO(&p.host);
    if (sched_getaffinity(0, sizeof p.host, &p.host) != 0) return;
    p.host_cpus = CPU_COUNT(&p.host);
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &p.host)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof one, &one) == 0) p.cpu = cpu;
        return;
    }
}

/// Gives the calling thread back every CPU it started with.
void unpin() {
    const Placement& p = placement();
    if (p.cpu >= 0) sched_setaffinity(0, sizeof p.host, &p.host);
}

/// Host and configuration identity of the run (compare.py refuses to
/// compare runs whose fingerprints differ; load average and steal are
/// recorded beside it, not part of it).
std::string fingerprint() {
    const Placement& p = placement();
    const int host_cpus = p.host_cpus > 0
                              ? p.host_cpus
                              : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    const char* affinity = std::getenv("MTG_AFFINITY");
    std::string out = "{";
    out += "\"nproc\":" + std::to_string(host_cpus);
    out += ",\"cpus_used\":" + std::to_string(p.cpu >= 0 ? 1 : host_cpus);
    out += ",\"cpu_model\":" + quote(read_first("/proc/cpuinfo", "model name"));
    out += ",\"avx2\":" + std::string(sim::cpu_has_avx2() ? "true" : "false");
    out += ",\"avx512f\":" +
           std::string(sim::cpu_has_avx512f() ? "true" : "false");
    out += ",\"lane_width\":" + std::to_string(sim::active_lane_width());
    out += ",\"lane_isa\":" +
           quote(isa_name(sim::active_lane_isa(sim::kZmmWorkItemThreshold)));
    out += ",\"lanes\":" +
           std::to_string(util::ThreadPool::global().worker_count());
    out += ",\"affinity\":" + quote(affinity && *affinity ? affinity : "auto");
    return out + "}";
}

double load_average() {
    double load[1] = {0.0};
    return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss survives exec, so it would report the launcher's peak when
/// that is larger.
double peak_rss_mb() {
    const std::string hwm = read_first("/proc/self/status", "VmHWM");
    return std::strtod(hwm.c_str(), nullptr) / 1024.0;
}

void print_report(const std::string& workload, const std::string& mode,
                  std::uint64_t seed, const Report& r) {
    std::string out = "{";
    out += "\"workload\":" + quote(workload);
    out += ",\"mode\":" + quote(mode);
    out += ",\"seed\":" + std::to_string(seed);
    out += ",\"fingerprint\":" + fingerprint();
    out += ",\"load_average\":" + number(load_average());
    out += ",\"setup_s\":" + number(r.setup_s);
    out += ",\"setup_cpu_s\":" + number(r.setup_cpu_s);
    out += ",\"attempted\":" + std::to_string(r.attempted);
    out += ",\"failed\":" + std::to_string(r.failed);
    out += ",\"completed\":" + std::to_string(r.completed);
    out += ",\"elapsed_s\":" + number(r.elapsed_s);
    out += ",\"cpu_s\":" + number(r.cpu_s);
    out += ",\"steal_share\":" + number(r.steal_share);
    out += ",\"peak_rss_mb\":" + number(r.peak_rss_mb);
    out += ",\"start_s\":" + array(r.start_s);
    out += ",\"done_s\":" + array(r.done_s);
    out += ",\"cpu_ms\":" + array(r.cpu_ms);
    out += ",\"traced\":" + array(r.traced);
    out += ",\"values\":{";
    bool first = true;
    for (const auto& [name, value] : r.values) {
        out += (first ? "" : ",") + quote(name) + ":" + number(value);
        first = false;
    }
    out += "},\"errors\":[";
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        out += (i ? "," : "") + quote(r.errors[i]);
    out += "]}";
    std::printf("%s\n", out.c_str());
}

// ---- shared run context ---------------------------------------------------

struct Context {
    std::string mode;      ///< run | setup | check
    std::uint64_t seed{1};
    double seconds{10.0};
    bool traced{false};
    Tracer tracer{Clock::now()};
    Report report;

    /// Process CPU time when the current request's last program call
    /// ended (the checks after it are not part of the request).
    double done_cpu_s{0.0};

    /// End of a request's program calls: returns the time, records the CPU.
    Clock::time_point mark_done() {
        done_cpu_s = process_cpu_s();
        return Clock::now();
    }

    [[nodiscard]] bool checking() const { return mode != "setup"; }
    /// Check mode bounds the request count instead of the duration.
    [[nodiscard]] std::size_t max_requests() const {
        return mode == "check" ? 3 : static_cast<std::size_t>(-1);
    }
};

/// A workload measured as a closed loop: one client, the next request
/// after the previous one completed.
class ClosedLoop {
public:
    virtual ~ClosedLoop() = default;
    /// Sessions plus the warm-up pass over the distinct requests; timed
    /// as setup_s.
    virtual void setup(Context& ctx) = 0;
    /// Untimed preparation of the expected outputs (run/check modes).
    virtual void prepare_checks(Context&) {}
    /// One request: the program calls inside `request_span`; returns
    /// ctx.mark_done() taken after the last program call (the checks run
    /// after it and are not part of the request's cost).
    virtual Clock::time_point request(Context& ctx, std::int64_t id,
                                      std::int64_t request_span) = 0;
};

void run_closed_loop(Context& ctx, ClosedLoop& workload) {
    const double setup_cpu = process_cpu_s();
    const auto setup_start = Clock::now();
    workload.setup(ctx);
    ctx.report.setup_s =
        std::chrono::duration<double>(Clock::now() - setup_start).count();
    ctx.report.setup_cpu_s = process_cpu_s() - setup_cpu;
    if (ctx.mode == "setup") return;
    workload.prepare_checks(ctx);

    Report& report = ctx.report;
    const auto [steal_before, total_before] = steal_jiffies();
    const double cpu_start = process_cpu_s();
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(ctx.seconds));
    const auto offset = [&](Clock::time_point t) {
        return std::chrono::duration<double>(t - start).count();
    };
    auto last = start;
    for (std::size_t i = 0; i < ctx.max_requests(); ++i) {
        if (ctx.mode != "check" && Clock::now() >= end) break;
        const auto id = static_cast<std::int64_t>(i);
        ctx.tracer.enable(ctx.traced && i % 2 == 0);
        ++report.attempted;
        const double cpu0 = process_cpu_s();
        const auto t0 = Clock::now();
        const std::int64_t span = ctx.tracer.open_at("request", -1, id, t0);
        Clock::time_point done = t0;
        const std::size_t failed_before = report.failed;
        try {
            done = workload.request(ctx, id, span);
        } catch (const std::exception& error) {
            done = ctx.mark_done();
            report.fail(std::string("request threw: ") + error.what());
        }
        ctx.tracer.close_at(span, done);
        if (report.failed == failed_before) {
            ++report.completed;
            report.start_s.push_back(offset(t0));
            report.done_s.push_back(offset(done));
            report.cpu_ms.push_back((ctx.done_cpu_s - cpu0) * 1e3);
            report.traced.push_back(ctx.tracer.on() ? 1.0 : 0.0);
        }
        last = Clock::now();
    }
    ctx.tracer.enable(false);
    report.elapsed_s = offset(last);
    report.cpu_s = process_cpu_s() - cpu_start;
    const auto [steal_after, total_after] = steal_jiffies();
    if (total_after > total_before)
        report.steal_share =
            (steal_after - steal_before) / (total_after - total_before);
    report.peak_rss_mb = peak_rss_mb();
}

// ---- generate -------------------------------------------------------------

/// One request regenerates all six Table 3 rows (seeded row order) with
/// default Generator options on Engine::global().
class GenerateWorkload final : public ClosedLoop {
public:
    explicit GenerateWorkload(std::uint64_t seed) : rng_(stream(seed, 0)) {}

    void setup(Context& ctx) override {
        (void)engine::Engine::global();
        for (std::size_t r = 0; r < rows_.size(); ++r)
            check_row(ctx, r, generator_.generate(rows_[r].kinds));
    }

    Clock::time_point request(Context& ctx, std::int64_t id,
                              std::int64_t span) override {
        const std::vector<int> order = table_order(rng_);
        const engine::Engine::Stats before = engine::Engine::global().stats();
        std::vector<core::GenerationResult> results(rows_.size());
        for (const int r : order) {
            const auto row = static_cast<std::size_t>(r);
            results[row] = ctx.tracer.scoped("core.generate", span, id, [&] {
                return generator_.generate(rows_[row].kinds);
            });
        }
        const auto done = ctx.mark_done();
        const engine::Engine::Stats after = engine::Engine::global().stats();
        double combinations = 0.0;
        double nodes = 0.0;
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            check_row(ctx, r, results[r]);
            combinations += results[r].combinations_tried;
            nodes += static_cast<double>(results[r].atsp_stats.nodes_explored);
        }
        ctx.tracer.count(id, "core.combinations", combinations);
        ctx.tracer.count(id, "atsp.nodes", nodes);
        ctx.tracer.count(id, "engine.queries",
                         static_cast<double>(after.queries - before.queries));
        ctx.tracer.count(
            id, "engine.cache_misses",
            static_cast<double>(after.cache.misses - before.cache.misses));
        return done;
    }

private:
    const std::vector<fault::NamedFaultList>& rows_ =
        fault::table3_fault_lists();
    core::Generator generator_;
    Rng rng_;

    void check_row(Context& ctx, std::size_t r,
                   const core::GenerationResult& result) {
        if (!ctx.checking()) return;
        const fault::NamedFaultList& row = rows_[r];
        if (!result.valid)
            ctx.report.fail(row.name + ": generated test not valid");
        else if (result.complexity != row.paper_complexity)
            ctx.report.fail(row.name + ": complexity " +
                            std::to_string(result.complexity) + "n, paper " +
                            std::to_string(row.paper_complexity) + "n");
        else if (!result.redundancy.non_redundant)
            ctx.report.fail(row.name + ": generated test is redundant");
    }
};

// ---- sweep ----------------------------------------------------------------

/// A campaign's queries, per library test: bit Detects and word Traces.
struct Campaign {
    std::vector<engine::Query> bit;
    std::vector<engine::Query> word;
};

Campaign campaign_queries() {
    Campaign campaign;
    const auto bit_kinds = fault::parse_fault_kinds(kSweepBitKinds);
    const auto word_kinds = fault::parse_fault_kinds(kSweepWordKinds);
    for (const march::NamedMarchTest& named : march::known_march_tests()) {
        engine::Query bit;
        bit.test = named.test;
        bit.universe = engine::BitUniverse{{.memory_size = kSweepCells}};
        bit.want = engine::Want::Detects;
        bit.kinds = bit_kinds;
        campaign.bit.push_back(std::move(bit));
        engine::Query word;
        word.test = named.test;
        word.universe = engine::WordUniverse{
            word::counting_backgrounds(kSweepWidth),
            {.words = kSweepWords, .width = kSweepWidth}};
        word.want = engine::Want::Traces;
        word.kinds = word_kinds;
        campaign.word.push_back(std::move(word));
    }
    return campaign;
}

/// One request is a campaign over every library test: bit Detects and
/// word Traces locally, the same bit queries through RemoteBackend over a
/// 2-peer loopback fleet, compared bit for bit with the local verdicts.
class SweepWorkload final : public ClosedLoop {
public:
    explicit SweepWorkload(std::uint64_t seed)
        : rng_(stream(seed, 5)), campaign_(campaign_queries()) {}

    void setup(Context&) override {
        local_ = std::make_unique<engine::Engine>();
        fleet_ = std::make_unique<net::LoopbackFleet>(2);
        remote_ = std::make_unique<engine::Engine>(
            engine::make_remote_backend(fleet_->take_fds()));
        for (std::size_t t = 0; t < campaign_.bit.size(); ++t) {
            expected_bit_.push_back(local_->run(campaign_.bit[t]).detected);
            expected_word_.push_back(local_->run(campaign_.word[t]).detected);
            (void)remote_->run(campaign_.bit[t]);
        }
    }

    Clock::time_point request(Context& ctx, std::int64_t id,
                              std::int64_t span) override {
        const std::vector<std::size_t> order =
            campaign_order(rng_, campaign_.bit.size());
        const engine::Engine::Stats local_before = local_->stats();
        const engine::Engine::Stats remote_before = remote_->stats();
        std::vector<engine::Result> bit(order.size());
        std::vector<engine::Result> word(order.size());
        std::vector<engine::Result> fleet(order.size());
        for (const std::size_t t : order) {
            bit[t] = ctx.tracer.scoped("engine.local_bit", span, id, [&] {
                return local_->run(campaign_.bit[t]);
            });
            word[t] = ctx.tracer.scoped("engine.local_word", span, id, [&] {
                return local_->run(campaign_.word[t]);
            });
            fleet[t] = ctx.tracer.scoped("engine.fleet_bit", span, id, [&] {
                return remote_->run(campaign_.bit[t]);
            });
        }
        const auto done = ctx.mark_done();
        const engine::Engine::Stats local_after = local_->stats();
        const engine::Engine::Stats remote_after = remote_->stats();
        for (std::size_t t = 0; t < order.size(); ++t) {
            const std::string& name = march::known_march_tests()[t].name;
            if (fleet[t].detected != bit[t].detected)
                ctx.report.fail(name + ": fleet verdicts differ from local");
            else if (bit[t].detected != expected_bit_[t])
                ctx.report.fail(name + ": bit verdicts differ from set-up");
            else if (word[t].detected != expected_word_[t] ||
                     word[t].word_traces.size() != word[t].detected.size())
                ctx.report.fail(name + ": word traces differ from set-up");
        }
        ctx.tracer.count(
            id, "engine.queries",
            static_cast<double>(local_after.queries - local_before.queries +
                                remote_after.queries - remote_before.queries));
        ctx.tracer.count(
            id, "engine.cache_misses",
            static_cast<double>(
                local_after.cache.misses - local_before.cache.misses +
                remote_after.cache.misses - remote_before.cache.misses));
        return done;
    }

    ~SweepWorkload() override {
        // The remote engine closes the peer connections, which lets the
        // fleet join its workers.
        remote_.reset();
        fleet_.reset();
    }

private:
    Rng rng_;
    Campaign campaign_;
    std::unique_ptr<engine::Engine> local_;
    std::unique_ptr<net::LoopbackFleet> fleet_;
    std::unique_ptr<engine::Engine> remote_;
    std::vector<std::vector<bool>> expected_bit_;
    std::vector<std::vector<bool>> expected_word_;
};

// ---- layer probes (traced run only) ---------------------------------------

/// Median of `reps` timings of `body`, in the given unit per call.
template <typename Body>
double median_time(int reps, double scale, Body&& body) {
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        body();
        samples.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count() * scale);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/// First one- and two-slot skeletons, the candidate shapes of a search's
/// opening rounds.
std::vector<synth::Skeleton> opening_candidates() {
    const auto& templates = synth::slot_templates(false);
    std::vector<synth::Skeleton> out;
    for (int polarity : {0, 1}) {
        for (const auto& first : templates) {
            for (const auto order :
                 {march::AddressOrder::Any, march::AddressOrder::Ascending,
                  march::AddressOrder::Descending}) {
                synth::Skeleton one{polarity, {synth::Slot{order, first}}};
                if (!one.starts_with_write()) continue;
                out.push_back(one);
                for (const auto& second : templates) {
                    synth::Skeleton two = one;
                    two.slots.push_back(
                        synth::Slot{march::AddressOrder::Any, second});
                    out.push_back(std::move(two));
                }
            }
        }
    }
    return out;
}

/// Population shapes a workload's requests expand.
void build_shapes(const std::string& workload, engine::PopulationCache& cache) {
    if (workload == "generate") {
        for (const auto& row : fault::table3_fault_lists())
            (void)cache.bit(row.kinds, sim::RunOptions{}.memory_size);
    } else {
        (void)cache.bit(fault::parse_fault_kinds(kSweepBitKinds), kSweepCells);
        (void)cache.word(fault::parse_fault_kinds(kSweepWordKinds),
                         {.words = kSweepWords, .width = kSweepWidth});
    }
}

/// Per-call costs of the layers' public functions, each on the inputs of
/// the workload that exercises it. Every traced run runs the whole suite,
/// so every workload reports every per-layer metric.
void run_probes(const std::string& workload, Report& report) {
    auto& values = report.values;
    values["engine.population_build_ms"] = median_time(5, 1e3, [&] {
        engine::PopulationCache cache;
        build_shapes(workload, cache);
    });

    // generate: the six Table 3 rows and their generated tests.
    const auto& rows = fault::table3_fault_lists();
    std::vector<march::MarchTest> row_tests;
    const core::Generator generator;
    for (const auto& row : rows)
        row_tests.push_back(generator.generate(row.kinds).test);
    const engine::Engine& global = engine::Engine::global();
    values["engine.covers_all_us"] = median_time(21, 1e6 / 6, [&] {
        for (std::size_t r = 0; r < rows.size(); ++r)
            (void)global.covers_all(row_tests[r], rows[r].kinds);
    });
    values["fault.tp_classes_ms"] = median_time(5, 1e3 / 6, [&] {
        for (const auto& row : rows) (void)fault::extract_tp_classes(row.kinds);
    });
    values["setcover.redundancy_ms"] = median_time(5, 1e3 / 6, [&] {
        for (std::size_t r = 0; r < rows.size(); ++r)
            (void)setcover::analyse_redundancy(row_tests[r], rows[r].kinds);
    });

    // synth: pruned probes on the SAF,TF,CFin population.
    const engine::Engine session;
    engine::Query probe;
    probe.test = march::march_x();
    probe.universe = engine::BitUniverse{};
    probe.want = engine::Want::Detects;
    probe.kinds = fault::parse_fault_kinds("SAF,TF,CFin");
    probe.prune = true;
    (void)session.run(probe);
    values["engine.probe_run_us"] =
        median_time(501, 1e6, [&] { (void)session.run(probe); });
    // One BeamSearch per kind list of one cost class (2,734 probes each),
    // as `march_tool synth <kinds> --beam 8 --lookahead 1 --seed 1` runs
    // it: a fresh Scorer on a warm Engine.
    const std::vector<std::string> synth_lists{
        "SAF,TF,ADF", "CFin", "SAF,TF,CFin", "RDF,DRDF", "SAF,TF,ADF,CFin"};
    std::vector<double> search_ms;
    synth::Scorer::Stats searched;
    for (int pass = 0; pass < 2; ++pass) {
        for (const std::string& list : synth_lists) {
            synth::ScorerConfig config;
            config.kinds = fault::parse_fault_kinds(list);
            synth::Scorer scorer(session, config);
            synth::SearchConfig search;
            search.beam_width = 8;
            search.lookahead = 1;
            search.seed = 1;
            search.include_delay = std::any_of(
                config.kinds.begin(), config.kinds.end(), fault::needs_wait);
            const auto t0 = Clock::now();
            const synth::SearchResult result =
                synth::BeamSearch(scorer, search).run();
            if (pass == 0) continue;  // the first pass warms the Engine
            search_ms.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count());
            searched.probes += result.probe_stats.probes;
            searched.cache_hits += result.probe_stats.cache_hits;
            searched.full_checks += result.probe_stats.full_checks;
        }
    }
    std::sort(search_ms.begin(), search_ms.end());
    const double searches = static_cast<double>(search_ms.size());
    values["synth.search_ms"] = search_ms[search_ms.size() / 2];
    values["synth.probes"] = static_cast<double>(searched.probes) / searches;
    values["synth.probe_cache_hits"] =
        static_cast<double>(searched.cache_hits) / searches;
    values["synth.full_checks"] =
        static_cast<double>(searched.full_checks) / searches;
    const std::vector<synth::Skeleton> candidates = opening_candidates();
    synth::ScorerConfig scorer_config;
    scorer_config.kinds = probe.kinds;
    scorer_config.probe_cache_capacity = 0;
    synth::Scorer scorer(session, scorer_config);
    const double per_candidate = 1e6 / static_cast<double>(candidates.size());
    values["synth.probe_us"] = median_time(5, per_candidate, [&] {
        for (const synth::Skeleton& candidate : candidates)
            (void)scorer.probe(candidate);
    });
    values["march.render_parse_us"] = median_time(5, per_candidate, [&] {
        for (const synth::Skeleton& candidate : candidates)
            (void)march::parse_march(candidate.render().str());
    });

    // sweep: local bit and word legs of one campaign (the first pass
    // builds the populations).
    const Campaign campaign = campaign_queries();
    const auto faults_per_s = [&](const std::vector<engine::Query>& leg) {
        double faults = 0.0;
        for (const engine::Query& query : leg)
            faults += static_cast<double>(session.run(query).detected.size());
        return faults / median_time(3, 1.0, [&] {
            for (const engine::Query& query : leg) (void)session.run(query);
        });
    };
    values["sim.faults_per_s"] = faults_per_s(campaign.bit);
    values["word.faults_per_s"] = faults_per_s(campaign.word);

    // util: a 2-lane pool's fork/join round trip as the library runs it,
    // its threads free to use every CPU (the workloads run at one lane).
    unpin();
    util::ThreadPool pool(2);
    values["util.fork_join_us"] = median_time(2001, 1e6, [&] {
        pool.parallel_for(2, [](std::size_t, unsigned) {});
    });
}

// ---- plan -----------------------------------------------------------------

/// Prints the seeded inputs of a workload (the determinism tests diff
/// two seeds' plans).
int print_plan(const std::string& workload, std::uint64_t seed) {
    Rng rng = stream(seed, workload == "generate" ? 0 : 5);
    std::string orders = "[";
    for (int i = 0; i < 8; ++i) {
        std::vector<double> order;
        if (workload == "generate") {
            for (const int r : table_order(rng)) order.push_back(r);
        } else {
            for (const std::size_t t :
                 campaign_order(rng, march::known_march_tests().size()))
                order.push_back(static_cast<double>(t));
        }
        orders += (i ? "," : "") + array(order);
    }
    std::printf("{\"workload\":%s,\"orders\":%s]}\n", quote(workload).c_str(),
                orders.c_str());
    return 0;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench_driver <generate|sweep> "
                 "[--seed S] [--seconds T] [--mode run|setup|check] "
                 "[--trace-file PATH]\n"
                 "       perfbench_driver plan <workload> [--seed S]\n");
    return 2;
}

bool known_workload(const std::string& name) {
    return name == "generate" || name == "sweep";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    if (argc < 2) return usage();
    std::vector<std::string> args(argv + 1, argv + argc);
    const bool plan = args[0] == "plan";
    if (plan) args.erase(args.begin());
    if (args.empty() || !known_workload(args[0])) return usage();
    const std::string workload = args[0];

    Context ctx;
    ctx.mode = "run";
    std::string trace_file;
    for (std::size_t i = 1; i + 1 < args.size(); i += 2) {
        const std::string& flag = args[i];
        const std::string& value = args[i + 1];
        if (flag == "--seed")
            ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            ctx.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--mode")
            ctx.mode = value;
        else if (flag == "--trace-file")
            trace_file = value;
        else
            return usage();
    }
    if (args.size() % 2 == 0) return usage();
    if (ctx.mode != "run" && ctx.mode != "setup" && ctx.mode != "check")
        return usage();
    if (plan) return print_plan(workload, ctx.seed);
    ctx.traced = !trace_file.empty();

    pin_to_one_cpu();
    try {
        std::unique_ptr<ClosedLoop> loop;
        if (workload == "generate") {
            loop = std::make_unique<GenerateWorkload>(ctx.seed);
        } else {
            loop = std::make_unique<SweepWorkload>(ctx.seed);
        }
        run_closed_loop(ctx, *loop);
        if (ctx.traced) {
            if (!ctx.tracer.write(trace_file))
                throw std::runtime_error("cannot write " + trace_file);
            run_probes(workload, ctx.report);
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
        return 1;
    }
    print_report(workload, ctx.mode, ctx.seed, ctx.report);
    return ctx.report.failed == 0 ? 0 : 1;
}
