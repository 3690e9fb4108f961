/// Engine ≡ scalar oracles: every Query kind must match the scalar
/// oracles bit-for-bit across execution backends (Scalar vs Packed vs
/// Remote over loopback peers, and the process-wide session), lane widths
/// {1, 4, 8} and worker counts {1, 2, hardware_concurrency} — the
/// backend, width, pool and peer count are execution details, never
/// semantic ones. Also covers the Engine's population cache and the
/// chunk-aligned shard_ranges split the remote coordinator scatters.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "fault/kinds.hpp"
#include "march/library.hpp"
#include "net/framing.hpp"
#include "net/remote_backend.hpp"
#include "net/worker.hpp"
#include "sim/march_runner.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "word/word_batch_runner.hpp"

namespace mtg {
namespace {

using engine::BackendKind;
using engine::BitUniverse;
using engine::Engine;
using engine::EngineConfig;
using engine::Query;
using engine::Result;
using engine::Want;
using engine::WordUniverse;
using fault::FaultKind;

std::vector<unsigned> worker_counts() {
    const unsigned hardware =
        std::max(1u, std::thread::hardware_concurrency());
    return {1u, 2u, hardware};
}

const std::vector<FaultKind> kBitKinds = {
    FaultKind::Saf0,     FaultKind::TfUp, FaultKind::Rdf1,
    FaultKind::CfidUp0,  FaultKind::CfinDown, FaultKind::AfMap,
};

void expect_traces_eq(const std::vector<sim::RunTrace>& got,
                      const std::vector<sim::RunTrace>& want,
                      const char* label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].detected, want[i].detected) << label << " #" << i;
        ASSERT_EQ(got[i].failing_reads, want[i].failing_reads)
            << label << " #" << i;
        ASSERT_EQ(got[i].failing_observations, want[i].failing_observations)
            << label << " #" << i;
    }
}

void expect_word_traces_eq(const std::vector<word::WordRunTrace>& got,
                           const std::vector<word::WordRunTrace>& want,
                           const char* label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].detected, want[i].detected) << label << " #" << i;
        ASSERT_EQ(got[i].failing_reads, want[i].failing_reads)
            << label << " #" << i;
        ASSERT_EQ(got[i].failing_observations, want[i].failing_observations)
            << label << " #" << i;
    }
}

/// The per-kind scalar-oracle check of the bit universe: every fault kind,
/// on tests with ⇕ elements and retention waits, across lane widths and
/// worker counts.
TEST(EngineDifferential, BitQueriesMatchScalarOracleEverywhere) {
    const sim::RunOptions opts{.memory_size = 5, .max_any_expansion = 6};
    const std::vector<FaultKind>& kinds = fault::all_fault_kinds();
    for (const char* name : {"MATS", "March SS", "MATS+Del"}) {
        const auto& test = march::find_march_test(name).test;

        // Scalar-backend reference: the per-fault oracles.
        const Engine scalar(EngineConfig{.backend = BackendKind::Scalar});
        Query query;
        query.test = test;
        query.universe = BitUniverse{opts};
        query.kinds = kinds;

        query.want = Want::Detects;
        const Result ref_detects = scalar.run(query);
        query.want = Want::Traces;
        const Result ref_traces = scalar.run(query);
        query.want = Want::DetectsAll;
        const Result ref_all = scalar.run(query);
        ASSERT_EQ(ref_all.all,
                  std::all_of(ref_detects.detected.begin(),
                              ref_detects.detected.end(),
                              [](bool b) { return b; }));

        // The process-wide session's conveniences agree with the scalar
        // session.
        const Engine& global = Engine::global();
        EXPECT_EQ(global.covers_all(test, kinds, opts), ref_all.all);

        for (int width : {1, 4, 8}) {
            for (unsigned workers : worker_counts()) {
                util::ThreadPool pool(workers);
                const Engine eng(EngineConfig{.backend = BackendKind::Packed,
                                              .pool = &pool,
                                              .lane_width = width});
                query.want = Want::Detects;
                EXPECT_EQ(eng.run(query).detected, ref_detects.detected)
                    << name << " W" << width << " workers " << workers;
                query.want = Want::DetectsAll;
                EXPECT_EQ(eng.run(query).all, ref_all.all)
                    << name << " W" << width << " workers " << workers;
                query.want = Want::Traces;
                expect_traces_eq(eng.run(query).traces, ref_traces.traces,
                                 name);
            }
        }
    }
}

TEST(EngineDifferential, WordQueriesMatchScalarOracleEverywhere) {
    word::WordRunOptions opts;
    opts.words = 6;
    opts.width = 4;
    opts.max_any_expansion = 4;
    const auto backgrounds = word::counting_backgrounds(opts.width);
    const std::vector<FaultKind> kinds = {FaultKind::Saf1,
                                          FaultKind::CfidUp1};
    const auto& test = march::march_c_minus();

    const Engine scalar(EngineConfig{.backend = BackendKind::Scalar});
    Query query;
    query.test = test;
    query.universe = WordUniverse{backgrounds, opts};
    query.kinds = kinds;

    query.want = Want::Detects;
    const Result ref_detects = scalar.run(query);
    query.want = Want::Traces;
    const Result ref_traces = scalar.run(query);
    query.want = Want::DetectsAll;
    const Result ref_all = scalar.run(query);

    // The process-wide session's word coverage agrees per kind.
    for (FaultKind kind : kinds) {
        Query single = query;
        single.kinds = {kind};
        single.want = Want::DetectsAll;
        EXPECT_EQ(
            Engine::global().covers_everywhere(test, backgrounds, kind, opts),
            scalar.run(single).all);
    }

    for (int width : {1, 4, 8}) {
        for (unsigned workers : worker_counts()) {
            util::ThreadPool pool(workers);
            const Engine eng(EngineConfig{.backend = BackendKind::Packed,
                                          .pool = &pool,
                                          .lane_width = width});
            query.want = Want::Detects;
            EXPECT_EQ(eng.run(query).detected, ref_detects.detected)
                << "W" << width << " workers " << workers;
            query.want = Want::DetectsAll;
            EXPECT_EQ(eng.run(query).all, ref_all.all)
                << "W" << width << " workers " << workers;
            query.want = Want::Traces;
            expect_word_traces_eq(eng.run(query).word_traces,
                                  ref_traces.word_traces, "packed");
        }
    }
}

/// The packed dictionary sweep against the scalar oracle: the reference
/// places every instance itself and traces it on a Scalar session, so the
/// sweep's placement and its traces are both checked independently of the
/// packed kernel. Kinds cover decoder faults, state coupling and
/// retention; tests cover ⇕ elements and `del`.
TEST(EngineDifferential, DictionarySweepMatchesPlacedGuaranteedTraces) {
    const sim::RunOptions opts{.memory_size = 8, .max_any_expansion = 6};
    const std::vector<FaultKind> kinds = {
        FaultKind::Saf0, FaultKind::TfUp,     FaultKind::CfidUp0,
        FaultKind::Af,   FaultKind::AfMap,    FaultKind::CfstS1F0,
        FaultKind::Drf0,
    };
    const std::vector<fault::FaultInstance> instances =
        fault::instantiate(kinds);
    std::vector<sim::InjectedFault> placed;
    for (const fault::FaultInstance& instance : instances)
        placed.push_back(sim::place_instance(instance, opts.memory_size));

    const Engine packed;
    const Engine scalar(EngineConfig{.backend = BackendKind::Scalar});
    for (const char* name : {"March C-", "MATS+Del"}) {
        const auto& test = march::find_march_test(name).test;
        const Result sweep = packed.dictionary_sweep(test, kinds, opts);
        ASSERT_EQ(sweep.instances, instances) << name;
        expect_traces_eq(sweep.traces, scalar.traces(test, placed, opts),
                         name);
    }
}

TEST(ShardRanges, AlignedContiguousAndBalanced) {
    constexpr std::size_t kBlock = 504;  // one W=8 lane block
    EXPECT_TRUE(engine::shard_ranges(0, 4).empty());
    for (const std::size_t total : {std::size_t{1}, kBlock - 1}) {
        const auto ranges = engine::shard_ranges(total, 4);
        ASSERT_EQ(ranges.size(), 1u) << total;
        EXPECT_EQ(ranges[0].first, 0u);
        EXPECT_EQ(ranges[0].second, total);
    }
    {
        // More shards than blocks: one range per block, none empty.
        const auto ranges = engine::shard_ranges(3 * kBlock + 7, 10);
        ASSERT_EQ(ranges.size(), 4u);
        for (const auto& [begin, end] : ranges) EXPECT_LT(begin, end);
    }
    for (const std::size_t total :
         {kBlock, kBlock + 1, 2 * kBlock, std::size_t{1500}, std::size_t{4032},
          std::size_t{10'000}, std::size_t{65'280}}) {
        for (const int shards : {0, 1, 2, 3, 4, 7, 16}) {
            const auto ranges = engine::shard_ranges(total, shards);
            ASSERT_FALSE(ranges.empty());
            EXPECT_LE(ranges.size(),
                      static_cast<std::size_t>(std::max(shards, 1)));
            EXPECT_EQ(ranges.front().first, 0u);
            EXPECT_EQ(ranges.back().second, total);
            std::size_t fewest = total;
            std::size_t most = 0;
            for (std::size_t r = 0; r < ranges.size(); ++r) {
                const auto [begin, end] = ranges[r];
                ASSERT_LT(begin, end) << total << '/' << shards;
                if (r > 0) {  // contiguous
                    EXPECT_EQ(begin, ranges[r - 1].second);
                }
                if (r + 1 < ranges.size()) {  // interior boundaries aligned
                    EXPECT_EQ(end % kBlock, 0u) << total << '/' << shards;
                }
                const std::size_t blocks = (end - begin + kBlock - 1) / kBlock;
                fewest = std::min(fewest, blocks);
                most = std::max(most, blocks);
            }
            EXPECT_LE(most - fewest, 1u) << total << '/' << shards;
        }
    }
}

/// Loopback peer counts the remote differential sweeps. MTG_TEST_PEERS
/// pins a single count (the CI transport matrix leg runs {2, 4}).
std::vector<int> remote_peer_counts() {
    if (const char* env = std::getenv("MTG_TEST_PEERS")) {
        const int n = std::atoi(env);
        if (n > 0) return {n};
    }
    return {1, 2, 3};
}

TEST(EngineRemote, BitQueriesMatchPackedOverLoopbackPeers) {
    // n=24 -> multi-kind population of several 504-lane blocks, so the
    // coordinator genuinely scatters ranges across the fleet.
    const sim::RunOptions opts{.memory_size = 24, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const Engine packed;
    Query query;
    query.test = test;
    query.universe = BitUniverse{opts};
    query.kinds = kBitKinds;

    query.want = Want::Detects;
    const Result ref_detects = packed.run(query);
    query.want = Want::DetectsAll;
    const Result ref_all = packed.run(query);
    query.want = Want::Traces;
    const Result ref_traces = packed.run(query);
    const Result ref_sweep = packed.dictionary_sweep(test, kBitKinds, opts);

    for (const int peers : remote_peer_counts()) {
        net::LoopbackFleet fleet(peers);
        const Engine remote(engine::make_remote_backend(fleet.take_fds()));
        query.want = Want::Detects;
        EXPECT_EQ(remote.run(query).detected, ref_detects.detected)
            << peers << " peers";
        query.want = Want::DetectsAll;
        EXPECT_EQ(remote.run(query).all, ref_all.all) << peers << " peers";
        query.want = Want::Traces;
        expect_traces_eq(remote.run(query).traces, ref_traces.traces,
                         "remote bit traces");
        const Result sweep = remote.dictionary_sweep(test, kBitKinds, opts);
        ASSERT_EQ(sweep.instances, ref_sweep.instances) << peers << " peers";
        expect_traces_eq(sweep.traces, ref_sweep.traces,
                         "remote dictionary sweep");
    }
}

TEST(EngineRemote, WordQueriesMatchPackedOverLoopbackPeers) {
    word::WordRunOptions opts;
    opts.words = 6;
    opts.width = 4;
    opts.max_any_expansion = 4;
    const auto backgrounds = word::counting_backgrounds(opts.width);
    const std::vector<FaultKind> kinds = {FaultKind::Saf1,
                                          FaultKind::CfidUp1};
    const auto& test = march::march_c_minus();
    const Engine packed;
    Query query;
    query.test = test;
    query.universe = WordUniverse{backgrounds, opts};
    query.kinds = kinds;

    query.want = Want::Detects;
    const Result ref_detects = packed.run(query);
    query.want = Want::DetectsAll;
    const Result ref_all = packed.run(query);
    query.want = Want::Traces;
    const Result ref_traces = packed.run(query);
    const Result ref_sweep =
        packed.dictionary_sweep(test, backgrounds, kinds, opts);

    for (const int peers : remote_peer_counts()) {
        net::LoopbackFleet fleet(peers);
        const Engine remote(engine::make_remote_backend(fleet.take_fds()));
        query.want = Want::Detects;
        EXPECT_EQ(remote.run(query).detected, ref_detects.detected)
            << peers << " peers";
        query.want = Want::DetectsAll;
        EXPECT_EQ(remote.run(query).all, ref_all.all) << peers << " peers";
        query.want = Want::Traces;
        expect_word_traces_eq(remote.run(query).word_traces,
                              ref_traces.word_traces, "remote word traces");
        const Result sweep =
            remote.dictionary_sweep(test, backgrounds, kinds, opts);
        ASSERT_EQ(sweep.instances, ref_sweep.instances) << peers << " peers";
        expect_word_traces_eq(sweep.word_traces, ref_sweep.word_traces,
                              "remote word dictionary sweep");
    }
}

TEST(EngineRemote, WrongWidthBackgroundsThrowBeforeAnyPeerSeesThem) {
    // Backgrounds narrower than the word fail word::valid_setup where the
    // query enters the Engine, so no peer receives a frame its decoder
    // must refuse (a refused frame costs the connection). A fleet of
    // plain fds has no reconnector, so it serving the next valid query
    // shows that no peer was lost.
    word::WordRunOptions opts;
    opts.words = 6;
    opts.width = 8;
    const auto& test = march::march_c_minus();
    const auto backgrounds = word::counting_backgrounds(opts.width);
    const auto narrow = word::counting_backgrounds(4);
    const auto population =
        word::coverage_population(FaultKind::CfidUp1, opts);
    const Engine packed;
    const std::vector<bool> want =
        packed.detects(test, backgrounds, population, opts);

    net::LoopbackFleet fleet(2);
    const Engine remote(engine::make_remote_backend(fleet.take_fds()));
    Query query;
    query.test = test;
    query.universe = WordUniverse{narrow, opts};
    query.want = Want::Detects;
    query.kinds = {FaultKind::CfidUp1};
    EXPECT_THROW((void)remote.run(query), ContractViolation);
    EXPECT_THROW((void)remote.detects(test, narrow, population, opts),
                 ContractViolation);
    EXPECT_THROW((void)remote.traces(test, narrow, population, opts),
                 ContractViolation);
    EXPECT_EQ(remote.detects(test, backgrounds, population, opts), want);
}

TEST(EngineRemote, SurvivesPeerKilledMidQuery) {
    // Peer 0 closes its connection on the first query WITHOUT replying;
    // the coordinator must re-dispatch its ranges to peer 1 and still
    // produce the packed answers.
    const sim::RunOptions opts{.memory_size = 24, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const auto population =
        sim::full_population(fault::FaultKind::CfidUp0, opts.memory_size);
    ASSERT_GT(population.size(), std::size_t{504});

    const Engine packed;
    const auto want_detects = packed.detects(test, population, opts);
    const auto want_traces = packed.traces(test, population, opts);

    net::LoopbackFleet fleet(2, {{.die_after_queries = 1}, {}});
    const Engine remote(engine::make_remote_backend(fleet.take_fds()));
    EXPECT_EQ(remote.detects(test, population, opts), want_detects);
    expect_traces_eq(remote.traces(test, population, opts), want_traces,
                     "after peer death");
}

TEST(EngineRemote, StragglerRangesAreReDispatched) {
    // Peer 0 answers every query only after a delay far beyond the
    // straggler timeout: peer 1 must pick up the duplicated ranges, the
    // late duplicate replies are dropped first-wins, and the merged
    // answers stay bit-identical to packed.
    const sim::RunOptions opts{.memory_size = 24, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const auto population =
        sim::full_population(fault::FaultKind::CfidUp0, opts.memory_size);

    const Engine packed;
    const auto want_detects = packed.detects(test, population, opts);

    net::LoopbackFleet fleet(2, {{.delay_ms = 2000}, {}});
    engine::RemoteOptions options;
    options.straggler_timeout_ms = 100;
    const Engine remote(
        engine::make_remote_backend(fleet.take_fds(), options));
    EXPECT_EQ(remote.detects(test, population, opts), want_detects);
    // A second query on the same session still works: the straggler's
    // stale replies must not desynchronize later queries.
    EXPECT_EQ(remote.detects(test, population, opts), want_detects);
}

TEST(EngineRemote, CorruptFramesMarkThePeerDeadWithoutHanging) {
    const sim::RunOptions opts{.memory_size = 24, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const auto population =
        sim::full_population(fault::FaultKind::CfidUp0, opts.memory_size);

    const Engine packed;
    const auto want_detects = packed.detects(test, population, opts);

    {
        // Peer 0 replies with an undecodable (garbage) frame.
        net::LoopbackFleet fleet(2, {{.garbage_after_queries = 1}, {}});
        const Engine remote(engine::make_remote_backend(fleet.take_fds()));
        EXPECT_EQ(remote.detects(test, population, opts), want_detects);
    }
    {
        // Peer 0 sends a length prefix promising more bytes than arrive.
        net::LoopbackFleet fleet(2, {{.truncate_after_queries = 1}, {}});
        const Engine remote(engine::make_remote_backend(fleet.take_fds()));
        EXPECT_EQ(remote.detects(test, population, opts), want_detects);
    }
}

TEST(EngineRemote, AllPeersDeadThrows) {
    const sim::RunOptions opts{.memory_size = 8, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const auto population =
        sim::full_population(fault::FaultKind::Saf0, opts.memory_size);

    net::LoopbackFleet fleet(1, {{.die_after_queries = 1}});
    engine::RemoteOptions options;  // FailFast is the default; pin it
    options.degrade = engine::DegradePolicy::FailFast;
    const Engine remote(
        engine::make_remote_backend(fleet.take_fds(), options));
    EXPECT_THROW((void)remote.detects(test, population, opts),
                 std::runtime_error);
}

TEST(EngineRemote, DegradeLocalCompletesWithAllPeersDead) {
    // The only peer dies mid-query and can never come back; with
    // DegradeLocal the coordinator routes every unanswered range through
    // its local packed "peer of last resort" — same verdicts, no throw.
    const sim::RunOptions opts{.memory_size = 24, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const auto population =
        sim::full_population(fault::FaultKind::CfidUp0, opts.memory_size);

    const Engine packed;
    const auto want_detects = packed.detects(test, population, opts);
    const auto want_traces = packed.traces(test, population, opts);

    net::LoopbackFleet fleet(1, {{.die_after_queries = 1}});
    engine::RemoteOptions options;
    options.degrade = engine::DegradePolicy::DegradeLocal;
    const Engine remote(
        engine::make_remote_backend(fleet.take_fds(), options));
    EXPECT_EQ(remote.detects(test, population, opts), want_detects);
    // Follow-up queries on the now-peerless session degrade too.
    expect_traces_eq(remote.traces(test, population, opts), want_traces,
                     "degraded traces");
}

TEST(EngineRemote, DeadlineBudgetDegradesLocally) {
    // The only peer answers far too slowly; the per-query deadline stops
    // the wait and DegradeLocal completes the query with packed-identical
    // results instead of throwing.
    const sim::RunOptions opts{.memory_size = 24, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const auto population =
        sim::full_population(fault::FaultKind::CfidUp0, opts.memory_size);

    const Engine packed;
    const auto want_detects = packed.detects(test, population, opts);

    net::LoopbackFleet fleet(1, {{.delay_ms = 2500}});
    engine::RemoteOptions options;
    options.query_deadline_ms = 200;
    options.degrade = engine::DegradePolicy::DegradeLocal;
    const Engine remote(
        engine::make_remote_backend(fleet.take_fds(), options));
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(remote.detects(test, population, opts), want_detects);
    // Well under the peer's 2.5 s answer: the deadline cut the wait.
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(2));
}

TEST(EngineRemote, DeadlineBudgetFailFastThrows) {
    const sim::RunOptions opts{.memory_size = 8, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const auto population =
        sim::full_population(fault::FaultKind::Saf0, opts.memory_size);

    net::LoopbackFleet fleet(1, {{.delay_ms = 2500}});
    engine::RemoteOptions options;
    options.query_deadline_ms = 200;
    options.degrade = engine::DegradePolicy::FailFast;
    const Engine remote(
        engine::make_remote_backend(fleet.take_fds(), options));
    EXPECT_THROW((void)remote.detects(test, population, opts),
                 std::runtime_error);
}

TEST(EngineRemote, FlappedPeerReconnectsAndServesRanges) {
    // The ONLY peer flaps (dies mid-query but its fleet accepts a
    // reconnect) and the policy is FailFast — so the query can complete
    // only if the supervisor actually revives the peer and the revived
    // connection serves the requeued ranges.
    const sim::RunOptions opts{.memory_size = 24, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const auto population =
        sim::full_population(fault::FaultKind::CfidUp0, opts.memory_size);

    const Engine packed;
    const auto want_detects = packed.detects(test, population, opts);

    net::LoopbackFleet fleet(1, {{.flap_after_queries = 1}});
    std::vector<engine::PeerConfig> peers(1);
    peers[0].fd = fleet.take_fds()[0];
    peers[0].connect = fleet.reconnector(0);
    engine::RemoteOptions options;
    options.degrade = engine::DegradePolicy::FailFast;
    options.reconnect_backoff_ms = 10;
    options.reconnect_backoff_max_ms = 100;
    const Engine remote(
        engine::make_remote_backend(std::move(peers), options));
    EXPECT_EQ(remote.detects(test, population, opts), want_detects);
    EXPECT_GE(fleet.connection_count(0), 2);  // it really reconnected
    EXPECT_GE(fleet.queries_answered(0), 1);  // and served ranges after
    // The revived session keeps working.
    EXPECT_EQ(remote.detects(test, population, opts), want_detects);
}

TEST(EngineRemote, PeerDroppingEveryConnectionBacksOff) {
    // Peer 0 accepts every connection and drops it before sending a
    // frame. A fresh connection is Alive at once, so its receiver has to
    // catch each death, and a death before the first frame counts as a
    // failed attempt: redials back off exponentially instead of firing on
    // every supervisor tick. Peer 1 answers the ranges meanwhile.
    const sim::RunOptions opts{.memory_size = 24, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const auto population =
        sim::full_population(FaultKind::CfidUp0, opts.memory_size);
    const Engine packed;
    const auto want_detects = packed.detects(test, population, opts);

    net::LoopbackFleet fleet(1);
    std::atomic<int> dials{0};
    std::vector<engine::PeerConfig> peers(2);
    peers[0].connect = [&dials] {
        ++dials;
        const auto [coordinator_fd, worker_fd] = net::socket_pair();
        ::close(worker_fd);
        return coordinator_fd;
    };
    peers[1].fd = fleet.take_fds()[0];
    engine::RemoteOptions options;
    options.reconnect_backoff_ms = 50;
    options.reconnect_backoff_max_ms = 1000;
    {
        const Engine remote(
            engine::make_remote_backend(std::move(peers), options));
        EXPECT_EQ(remote.detects(test, population, opts), want_detects);
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
    // Redials wait >= 25, 50, 100, 200 ms after each drop: about six fit
    // in the window, where a per-tick (20 ms) redial would reach ~30.
    EXPECT_GE(dials.load(), 2);
    EXPECT_LE(dials.load(), 10);
}

TEST(EngineRemote, EmptyPopulationNeedsNoNetwork) {
    // An empty population must short-circuit without touching the peers —
    // even a fleet that would corrupt every query never gets the chance.
    net::LoopbackFleet fleet(1, {{.garbage_after_queries = 1}});
    const Engine remote(engine::make_remote_backend(fleet.take_fds()));
    Query query;
    query.test = march::find_march_test("MATS").test;
    query.universe = BitUniverse{{.memory_size = 4}};
    query.want = Want::DetectsAll;
    EXPECT_TRUE(remote.run(query).all);
    query.want = Want::Detects;
    EXPECT_TRUE(remote.run(query).detected.empty());
}

TEST(EngineCache, PopulationsAreSharedAndKeyed) {
    const Engine eng;
    const auto a = eng.bit_population(kBitKinds, 8);
    const auto b = eng.bit_population(kBitKinds, 8);
    EXPECT_EQ(a.get(), b.get());  // cache hit: same expansion object
    // The entry concatenates each kind's class population in canonical
    // kind order.
    const auto concatenated = [](int memory_size) {
        std::vector<sim::InjectedFault> faults;
        for (FaultKind kind : engine::canonical_kinds(kBitKinds)) {
            const auto placed = sim::class_population(kind, memory_size);
            faults.insert(faults.end(), placed.begin(), placed.end());
        }
        return faults;
    };
    EXPECT_EQ(a->faults, concatenated(8));

    const auto c = eng.bit_population(kBitKinds, 9);
    EXPECT_NE(a.get(), c.get());  // different memory size, different entry
    EXPECT_EQ(c->faults, concatenated(9));

    word::WordRunOptions opts;
    opts.words = 6;
    opts.width = 4;
    const std::vector<FaultKind> kinds = {FaultKind::CfidUp1};
    const auto w1 = eng.word_population(kinds, opts);
    const auto w2 = eng.word_population(kinds, opts);
    EXPECT_EQ(w1.get(), w2.get());
    EXPECT_EQ(w1->faults, word::coverage_population(FaultKind::CfidUp1, opts));
}

TEST(EngineCache, PermutedAndDuplicatedKindListsShareOneEntry) {
    // Regression: the cache used to key on the kind list verbatim, so a
    // permuted (or duplicated) caller list bred a second multi-megafault
    // copy of the same population and burned budget until eviction.
    const Engine eng;
    const std::vector<FaultKind> permuted = {
        FaultKind::AfMap,   FaultKind::CfinDown, FaultKind::CfidUp0,
        FaultKind::Rdf1,    FaultKind::TfUp,     FaultKind::Saf0,
    };
    std::vector<FaultKind> duplicated = kBitKinds;
    duplicated.insert(duplicated.end(), permuted.begin(), permuted.end());

    const auto a = eng.bit_population(kBitKinds, 8);
    const auto b = eng.bit_population(permuted, 8);
    const auto c = eng.bit_population(duplicated, 8);
    EXPECT_EQ(a.get(), b.get());  // same entry, not a re-expansion
    EXPECT_EQ(a.get(), c.get());
    EXPECT_EQ(a->kinds, engine::canonical_kinds(kBitKinds));
    ASSERT_EQ(a->offsets.size(), a->kinds.size() + 1);
    EXPECT_EQ(a->offsets.front(), 0u);
    EXPECT_EQ(a->offsets.back(), a->faults.size());

    // Kind k's expansion owns [offsets[k], offsets[k + 1]).
    for (std::size_t k = 0; k < a->kinds.size(); ++k)
        for (std::size_t i = a->offsets[k]; i < a->offsets[k + 1]; ++i)
            ASSERT_EQ(a->faults[i].kind, a->kinds[k]) << "index " << i;

    const auto stats = eng.population_cache()->stats();
    EXPECT_EQ(stats.misses, 1u);  // one expansion served all three lists
    EXPECT_GE(stats.hits, 2u);

    word::WordRunOptions opts;
    opts.words = 6;
    opts.width = 4;
    const auto w1 = eng.word_population(
        {FaultKind::CfidUp1, FaultKind::Saf0}, opts);
    const auto w2 = eng.word_population(
        {FaultKind::Saf0, FaultKind::CfidUp1, FaultKind::Saf0}, opts);
    EXPECT_EQ(w1.get(), w2.get());
}

TEST(EngineQuery, ExplicitFaultsMatchKindExpansion) {
    // A kind query answers per class (aggressor below, then above); every
    // explicit placement must get its class's verdict.
    const sim::RunOptions opts{.memory_size = 6, .max_any_expansion = 6};
    const auto& test = march::find_march_test("MATS").test;
    const Engine eng;

    Query by_kinds;
    by_kinds.test = test;
    by_kinds.universe = BitUniverse{opts};
    by_kinds.want = Want::Detects;
    by_kinds.kinds = {FaultKind::CfstS1F0};

    Query by_faults = by_kinds;
    by_faults.kinds.clear();
    by_faults.bit_faults =
        sim::full_population(FaultKind::CfstS1F0, opts.memory_size);

    const std::vector<bool> classes = eng.run(by_kinds).detected;
    ASSERT_EQ(classes.size(), 2u);
    const std::vector<bool> placements = eng.run(by_faults).detected;
    ASSERT_EQ(placements.size(), by_faults.bit_faults.size());
    for (std::size_t i = 0; i < placements.size(); ++i) {
        const sim::InjectedFault& fault = by_faults.bit_faults[i];
        const std::size_t klass = fault.cell_a < fault.cell_b ? 0 : 1;
        EXPECT_EQ(placements[i], classes[klass])
            << "aggressor " << fault.cell_a << ", victim " << fault.cell_b;
    }
}

TEST(EngineQuery, EmptyKindDictionarySweepIsEmpty) {
    // Regression: an empty kind list must yield the empty sweep (the
    // dictionaries' and coverage matrix's historical degenerate), not a
    // precondition violation.
    const Engine eng;
    const auto& test = march::find_march_test("MATS").test;
    const Result bit_sweep =
        eng.dictionary_sweep(test, std::vector<FaultKind>{});
    EXPECT_TRUE(bit_sweep.instances.empty());
    EXPECT_TRUE(bit_sweep.traces.empty());
    EXPECT_TRUE(bit_sweep.all);
    const Result word_sweep =
        eng.dictionary_sweep(test, word::solid_background(8), {}, {});
    EXPECT_TRUE(word_sweep.instances.empty());
    EXPECT_TRUE(word_sweep.word_traces.empty());
    EXPECT_TRUE(word_sweep.all);
}

TEST(EngineRemote, MismatchedFrameCapKillsThePeerDeterministically) {
    // A worker whose cap is far below the coordinator's rejects the
    // (larger-than-cap) query frame as Corrupt and closes; the
    // coordinator sees the peer die and FailFast surfaces it — no hang,
    // no silent truncation. This is exactly the failure mode the
    // RemoteOptions::max_frame_bytes doc warns about when only one side
    // raises its cap.
    const sim::RunOptions opts{.memory_size = 8, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const auto population =
        sim::full_population(fault::FaultKind::CfidUp0, opts.memory_size);
    ASSERT_GT(population.size(), 32u);  // query frame certainly > 512 B

    net::WorkerHooks hooks;
    hooks.max_frame_bytes = 512;
    net::LoopbackFleet fleet(1, {hooks});
    engine::RemoteOptions options;
    options.degrade = engine::DegradePolicy::FailFast;
    const Engine remote(
        engine::make_remote_backend(fleet.take_fds(), options));
    EXPECT_THROW((void)remote.traces(test, population, opts),
                 std::runtime_error);
}

TEST(EngineRemote, NegativeIdleBoundIsRejected) {
    // Every peer channel bounds its mid-frame waits; there is no way to
    // turn the bound off.
    const auto [coordinator_fd, worker_fd] = net::socket_pair();
    engine::RemoteOptions options;
    options.mid_frame_idle_ms = -1;
    EXPECT_THROW((void)engine::make_remote_backend(
                     std::vector<int>{coordinator_fd}, options),
                 ContractViolation);
    ::close(coordinator_fd);
    ::close(worker_fd);
}

TEST(EngineRemote, RaisedFrameCapServesBitIdenticalResults) {
    // A raised cap on both ends (RemoteOptions on the coordinator,
    // WorkerHooks on the worker) leaves every answer bit-identical to the
    // packed oracle — the cap is plumbing, not semantics.
    const sim::RunOptions opts{.memory_size = 16, .max_any_expansion = 6};
    const auto& test = march::march_c_minus();
    const auto population =
        sim::full_population(fault::FaultKind::CfidUp0, opts.memory_size);

    const Engine packed;
    const auto want_detects = packed.detects(test, population, opts);
    const auto want_traces = packed.traces(test, population, opts);

    net::WorkerHooks hooks;
    hooks.max_frame_bytes = 256u << 20;
    net::LoopbackFleet fleet(2, {hooks, hooks});
    engine::RemoteOptions options;
    options.max_frame_bytes = 256u << 20;
    const Engine remote(
        engine::make_remote_backend(fleet.take_fds(), options));
    EXPECT_EQ(remote.detects(test, population, opts), want_detects);
    expect_traces_eq(remote.traces(test, population, opts), want_traces,
                     "raised-cap traces");
}

TEST(EngineQuery, EmptyPopulationIsVacuouslyCovered) {
    Query query;
    query.test = march::find_march_test("MATS").test;
    query.universe = BitUniverse{{.memory_size = 4}};
    query.want = Want::DetectsAll;
    const Engine eng;
    EXPECT_TRUE(eng.run(query).all);
    Query detects = query;
    detects.want = Want::Detects;
    EXPECT_TRUE(eng.run(detects).detected.empty());
}

/// The packed backend keeps one runner per thread for both universes and
/// retargets it at every query (WordBatchRunner::reset). One thread
/// alternates the memory size, the ⇕ cap, the pool, the lane width, the
/// Want and the test, query by query, and answers a word query of
/// another geometry and background set between every two bit queries;
/// every answer must equal a Scalar session's: a runner serving a stale
/// setup (the previous test, expansions, read sites, backgrounds, size,
/// pool or width) would answer for the wrong question.
TEST(EnginePackedRunner, PerThreadRunnerNeverServesAStaleSetup) {
    util::ThreadPool pool_a(1);
    util::ThreadPool pool_b(2);
    std::vector<std::unique_ptr<Engine>> sessions;
    for (util::ThreadPool* pool : {&pool_a, &pool_b})
        for (int width : {0, 1, 4, 8})
            sessions.push_back(std::make_unique<Engine>(
                EngineConfig{.backend = BackendKind::Packed,
                             .pool = pool,
                             .lane_width = width}));
    const Engine scalar(EngineConfig{.backend = BackendKind::Scalar});
    const char* names[] = {"MATS+", "March C-", "MATS+Del", "March SS",
                           "PMOVI", "March X"};
    const std::vector<FaultKind>& kinds = fault::all_fault_kinds();
    const Want wants[] = {Want::Detects, Want::DetectsAll, Want::Traces};

    struct WordCase {
        std::string label;
        Query query;
        Result want;
    };
    std::vector<WordCase> word_cases;
    const auto word_case = [&](const char* name, const char* list,
                               word::WordRunOptions opts, bool counting,
                               Want want) {
        Query query;
        query.test = march::find_march_test(name).test;
        query.universe = WordUniverse{
            counting ? word::counting_backgrounds(opts.width)
                     : word::solid_background(opts.width),
            opts};
        query.want = want;
        query.kinds = fault::parse_fault_kinds(list);
        word_cases.push_back({std::string(name) + " word " + list + " " +
                                  std::to_string(opts.words) + "x" +
                                  std::to_string(opts.width),
                              query, scalar.run(query)});
    };
    word_case("MATS+", "SAF,TF,CFid", {.words = 3, .width = 4}, true,
              Want::Detects);
    word_case("March C-", "SAF,CFin",
              {.words = 4, .width = 8, .max_any_expansion = 2}, false,
              Want::DetectsAll);
    word_case("March SS", "CFid",
              {.words = 3, .width = 8, .max_any_expansion = 6}, true,
              Want::Traces);
    word_case("PMOVI", "SAF,TF,CFst", {.words = 5, .width = 4}, true,
              Want::Traces);
    SplitMix64 word_rng(0xB17ULL);

    SplitMix64 rng(20261019);
    for (int step = 0; step < 300; ++step) {
        Query query;
        query.test = march::find_march_test(names[rng.below(6)]).test;
        query.universe = BitUniverse{
            {.memory_size = rng.below(2) == 0 ? 4 : 9,
             .max_any_expansion = static_cast<int>(rng.below(4)) * 2}};
        query.want = wants[rng.below(3)];
        query.kinds = kinds;
        const Engine& packed = *sessions[rng.below(sessions.size())];
        const Result want = scalar.run(query);
        const Result got = packed.run(query);
        const auto& opts = std::get<BitUniverse>(query.universe).opts;
        const std::string label =
            "step " + std::to_string(step) + ": " + query.test.str() +
            " n=" + std::to_string(opts.memory_size) +
            " cap=" + std::to_string(opts.max_any_expansion) +
            " W=" + std::to_string(packed.config().lane_width);
        ASSERT_EQ(got.all, want.all) << label;
        ASSERT_EQ(got.detected, want.detected) << label;
        expect_traces_eq(got.traces, want.traces, label.c_str());
        if (query.want == Want::DetectsAll) {
            ASSERT_EQ(packed.covers_all(query.test, kinds, opts), want.all)
                << label;
        }

        const WordCase& c = word_cases[word_rng.below(word_cases.size())];
        const Engine& word_packed =
            *sessions[word_rng.below(sessions.size())];
        const Result word_got = word_packed.run(c.query);
        const std::string word_label =
            "step " + std::to_string(step) + ": " + c.label +
            " W=" + std::to_string(word_packed.config().lane_width);
        ASSERT_EQ(word_got.all, c.want.all) << word_label;
        ASSERT_EQ(word_got.detected, c.want.detected) << word_label;
        expect_word_traces_eq(word_got.word_traces, c.want.word_traces,
                              word_label.c_str());
        if (HasFatalFailure()) return;
    }
}

/// Word and bit trace queries share each thread's trace sinks: word_run
/// re-arms one grid/run pair per thread per chunk and fans traces out of
/// it. One thread alternates, over 200 queries on Packed sessions of every
/// lane width, word Traces of one and of three W=8 chunks on tests of 2
/// (MATS+) and 13 (March SS) read sites, bit Traces, and the bit and word
/// DictionarySweeps; every answer must equal a Scalar session's. A sink
/// that kept a grid, a run, a mark or the committed state of an earlier
/// query or chunk would leak it into a later trace.
TEST(EnginePackedRunner, PerThreadTraceSinksNeverServeAStaleGrid) {
    util::ThreadPool serial(1);
    std::vector<std::unique_ptr<Engine>> sessions;
    for (int width : {0, 1, 4, 8})
        sessions.push_back(std::make_unique<Engine>(
            EngineConfig{.backend = BackendKind::Packed,
                         .pool = &serial,
                         .lane_width = width}));
    const Engine scalar(EngineConfig{.backend = BackendKind::Scalar});

    struct Case {
        std::string label;
        Query query;
        Result want;
    };
    std::vector<Case> cases;
    const auto word_case = [&](const char* name, const char* kinds,
                               int words, bool counting, Want want) {
        Query query;
        query.test = march::find_march_test(name).test;
        query.universe = WordUniverse{
            counting ? word::counting_backgrounds(8)
                     : word::solid_background(8),
            {.words = words, .width = 8}};
        query.want = want;
        query.kinds = fault::parse_fault_kinds(kinds);
        cases.push_back({std::string(name) + " word " + kinds + " " +
                             std::to_string(words) + "x8",
                         query, scalar.run(query)});
    };
    const auto bit_case = [&](const char* name, const char* kinds, int n,
                              Want want) {
        Query query;
        query.test = march::find_march_test(name).test;
        query.universe = BitUniverse{{.memory_size = n}};
        query.want = want;
        query.kinds = fault::parse_fault_kinds(kinds);
        cases.push_back({std::string(name) + " bit " + kinds, query,
                         scalar.run(query)});
    };
    // 276 faults: one W=8 chunk. 1,499 faults: three.
    const char* kMany = "SAF,TF,CFin,CFid,CFst,AF";
    for (const char* name : {"MATS+", "March SS"}) {
        word_case(name, "CFid", 4, true, Want::Traces);
        word_case(name, kMany, 8, std::string(name) == "MATS+",
                  Want::Traces);
    }
    bit_case("March C-", "SAF,TF,CFin,CFid,CFst,AF,RDF,DRF", 9,
             Want::Traces);
    bit_case("March SS", "SAF,TF,CFin,CFid,AF", 6, Want::DictionarySweep);
    word_case("March C-", "SAF,TF,CFin,CFid", 4, true,
              Want::DictionarySweep);
    ASSERT_EQ(cases[1].want.word_traces.size(), 1499u);

    SplitMix64 rng(0x51A4CULL);
    for (int step = 0; step < 200; ++step) {
        const Case& c = cases[rng.below(cases.size())];
        const Engine& packed = *sessions[rng.below(sessions.size())];
        const Result got = packed.run(c.query);
        const std::string label =
            "step " + std::to_string(step) + ": " + c.label +
            " W=" + std::to_string(packed.config().lane_width);
        ASSERT_EQ(got.all, c.want.all) << label;
        ASSERT_EQ(got.detected, c.want.detected) << label;
        expect_traces_eq(got.traces, c.want.traces, label.c_str());
        expect_word_traces_eq(got.word_traces, c.want.word_traces,
                              label.c_str());
        ASSERT_EQ(got.instances.size(), c.want.instances.size()) << label;
        if (HasFatalFailure()) return;
    }
}

}  // namespace
}  // namespace mtg
