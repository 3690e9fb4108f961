/// The query-server differential: everything a client reads off the wire
/// — over a real TCP socket or an in-process socketpair, alone or racing
/// other sessions — must be byte-identical to rendering a locally-run
/// PackedBackend Engine's Result. On top of the differential, the
/// admission machinery is pinned down: identical in-flight queries
/// observably collapse onto one backend run, interactive probes complete
/// while a dictionary sweep is in flight on the bulk lane, repeated
/// sweeps are answered from the sweep cache without a backend run, and
/// malformed input gets an "ok": false reply without killing the
/// connection. The TSan CI leg replays this whole file.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "march/library.hpp"
#include "net/framing.hpp"
#include "net/query_protocol.hpp"
#include "net/query_server.hpp"

namespace mtg::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

QueryRequest make_request(std::int64_t id, QueryOp op, std::string test,
                          std::string kinds) {
    QueryRequest request;
    request.id = id;
    request.op = op;
    request.test = std::move(test);
    request.kinds = std::move(kinds);
    return request;
}

QueryRequest make_word_request(std::int64_t id, QueryOp op) {
    QueryRequest request = make_request(id, op, "MATS+", "SAF,TF");
    request.word = true;
    request.words = 6;
    request.width = 4;
    return request;
}

/// What the server must emit for `request`, computed on a local Engine —
/// the whole differential in one line: resolve, run, render.
std::string expected_reply(const engine::Engine& local,
                           const QueryRequest& request) {
    return render_result(request.id, local.run(to_engine_query(request)));
}

/// The mixed battery both transports replay: every op, both universes,
/// a permuted-kind spelling, and an explicit syntax spelling of MATS+.
std::vector<QueryRequest> battery() {
    std::vector<QueryRequest> requests;
    requests.push_back(make_request(1, QueryOp::Detects, "MATS+", "SAF,TF"));
    requests.push_back(make_request(2, QueryOp::Detects, "MATS+", "TF,SAF"));
    requests.push_back(
        make_request(3, QueryOp::DetectsAll, "March C-", "SAF,TF,CFin"));
    requests.push_back(make_request(4, QueryOp::Traces, "MATS", "SAF"));
    requests.push_back(make_request(5, QueryOp::Sweep, "MATS+", "SAF,TF"));
    requests.push_back(make_word_request(6, QueryOp::Detects));
    requests.push_back(make_word_request(7, QueryOp::Traces));
    requests.push_back(make_word_request(8, QueryOp::Sweep));
    QueryRequest bigger = make_request(9, QueryOp::Detects, "March C-", "CFid");
    bigger.memory_size = 12;
    requests.push_back(std::move(bigger));
    return requests;
}

TEST(QueryProtocol, JsonDumpParseRoundTripsAndMaskIsNibbleLsbFirst) {
    const std::string line =
        R"({"id": 7, "op": "detects", "test": "MATS+", "kinds": "SAF,TF", "n": 10})";
    const QueryRequest request = parse_request(line);
    EXPECT_EQ(request.id, 7);
    EXPECT_EQ(request.op, QueryOp::Detects);
    EXPECT_EQ(request.memory_size, 10);
    // render -> parse -> render is a fixed point.
    const std::string rendered = render_request(request);
    EXPECT_EQ(render_request(parse_request(rendered)), rendered);

    // bit i of the mask is detected[i]; nibble j holds bits [4j, 4j+4).
    EXPECT_EQ(detected_mask({}), "");
    EXPECT_EQ(detected_mask({true, false, false, false}), "1");
    EXPECT_EQ(detected_mask({false, false, false, true}), "8");
    EXPECT_EQ(detected_mask({true, true, true, true, true}), "f1");
}

TEST(QueryProtocol, CoalesceKeyCollapsesSpellingsAndPermutations) {
    const QueryRequest a = make_request(1, QueryOp::Detects, "MATS+", "SAF,TF");
    const QueryRequest b = make_request(2, QueryOp::Detects, "MATS+", "TF,SAF");
    EXPECT_EQ(coalesce_key(a, to_engine_query(a)),
              coalesce_key(b, to_engine_query(b)));

    // A library name and its spelled-out March syntax are one key too:
    // the key is built from the resolved test, not the request text.
    QueryRequest c = a;
    c.test = march::find_march_test("MATS+").test.str();
    EXPECT_EQ(coalesce_key(a, to_engine_query(a)),
              coalesce_key(c, to_engine_query(c)));

    const QueryRequest other =
        make_request(3, QueryOp::Traces, "MATS+", "SAF,TF");
    EXPECT_NE(coalesce_key(a, to_engine_query(a)),
              coalesce_key(other, to_engine_query(other)));
}

TEST(QueryServer, SocketpairSessionMatchesLocalEngineByteForByte) {
    QueryServer server;
    const auto [server_fd, client_fd] = socket_pair();
    server.serve_fd(server_fd);
    QueryClient client(client_fd);

    const engine::Engine local;
    for (const QueryRequest& request : battery()) {
        const auto reply = client.roundtrip(request, /*timeout_ms=*/30000);
        ASSERT_TRUE(reply.has_value()) << "id " << request.id;
        EXPECT_EQ(*reply, expected_reply(local, request))
            << "id " << request.id;
    }

    const QueryServer::Stats stats = server.stats();
    EXPECT_EQ(stats.requests, battery().size());
    EXPECT_EQ(stats.responses, battery().size());
    EXPECT_EQ(stats.errors, 0u);
}

TEST(QueryServer, ConcurrentTcpClientsMatchLocalEngineByteForByte) {
    QueryServer server;
    const std::uint16_t port = server.listen(0);
    ASSERT_GT(port, 0);

    const engine::Engine local;
    const std::vector<QueryRequest> requests = battery();
    std::vector<std::string> expected;
    expected.reserve(requests.size());
    for (const QueryRequest& request : requests)
        expected.push_back(expected_reply(local, request));

    constexpr int kClients = 4;
    constexpr int kRounds = 3;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            QueryClient client("127.0.0.1", port);
            for (int round = 0; round < kRounds; ++round) {
                for (std::size_t i = 0; i < requests.size(); ++i) {
                    // Walk from a per-client phase so distinct queries
                    // overlap across sessions.
                    const std::size_t index =
                        (i + static_cast<std::size_t>(c) * 3) %
                        requests.size();
                    const auto reply =
                        client.roundtrip(requests[index], 30000);
                    if (!reply.has_value() || *reply != expected[index])
                        mismatches.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(server.stats().sessions, static_cast<std::size_t>(kClients));
}

/// A query heavy enough to hold the single bulk executor for about a
/// second, forced onto the bulk lane with the explicit class override —
/// so requests admitted behind it are deterministically queued, not
/// racing its completion. Its cost comes from the test's structure, not
/// from any one fault kind's: `k` order-dependent ⇕ elements with
/// `max_any` = k give 2^k expansions. A pass walks them as one
/// prefix-sharing tree, in which the j-th ⇕ element runs 2^j times, over
/// the CFid class population (8 lanes, one chunk, whatever the memory
/// size) of a 1280-cell memory: the pass visits every cell, so its cost
/// grows with the memory size. Detects rather than Traces keeps the
/// reply to a short mask the un-drained client socket can buffer (a
/// multi-MB trace dump would wedge the executor in write_line), and a
/// DictionarySweep won't do either: dictionaries are canonical
/// *instances*, a few dozen traces, finished in microseconds. The tests
/// check that the bulk lane is still busy (`bulk_done == 0`) at every
/// point they rely on it, so a blocker that gets cheap fails loudly.
QueryRequest blocking_bulk_query(std::int64_t id) {
    // Debug and sanitizer builds run the simulation 10-100x slower; the
    // blocker only has to outlast the admission of a handful of tiny
    // requests, so scale it down rather than time the whole leg out.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__) || \
    !defined(NDEBUG)
    constexpr int kAnyElements = 10;
#else
    constexpr int kAnyElements = 15;
#endif
    std::string test = "{^(w0)";
    for (int i = 0; i < kAnyElements; ++i)
        test += i % 2 == 0 ? "; ~(r0,w1)" : "; ~(r1,w0)";
    test += kAnyElements % 2 == 0 ? "; ^(r0)}" : "; ^(r1)}";
    QueryRequest request =
        make_request(id, QueryOp::Detects, std::move(test), "CFid");
    request.memory_size = 1280;
    request.max_any = kAnyElements;
    request.klass = QueryClass::Bulk;
    return request;
}

TEST(QueryServer, IdenticalInFlightQueriesCoalesceOntoOneBackendRun) {
    QueryServerOptions options;
    options.interactive_executors = 1;
    options.bulk_executors = 1;
    QueryServer server(options);

    // Occupy the only bulk executor.
    const auto [blocker_server_fd, blocker_client_fd] = socket_pair();
    server.serve_fd(blocker_server_fd);
    QueryClient blocker(blocker_client_fd);
    ASSERT_TRUE(blocker.send(blocking_bulk_query(100)));
    std::this_thread::sleep_for(50ms);
    ASSERT_EQ(server.stats().bulk_done, 0u)
        << "the blocker finished before the subscribers were sent";

    // Five sessions ask the identical bulk question while the executor is
    // busy: the first admission creates the queued task, the other four
    // must attach to it — five answers, ONE backend run.
    const QueryRequest shared =
        make_request(200, QueryOp::Traces, "MATS+", "SAF,TF");
    constexpr int kSubscribers = 5;
    std::vector<QueryClient> clients;
    clients.reserve(kSubscribers);
    for (int i = 0; i < kSubscribers; ++i) {
        const auto [server_fd, client_fd] = socket_pair();
        server.serve_fd(server_fd);
        clients.emplace_back(client_fd);
        QueryRequest request = shared;
        request.id = 200 + i;
        // Permute the kind spelling on half the sessions: the resolved
        // key must collapse those too.
        if (i % 2 == 1) request.kinds = "TF,SAF";
        ASSERT_TRUE(clients.back().send(request));
    }
    ASSERT_EQ(server.stats().bulk_done, 0u)
        << "the blocker finished while the subscribers were being sent";

    const engine::Engine local;
    for (int i = 0; i < kSubscribers; ++i) {
        const auto reply = clients[i].read_reply(/*timeout_ms=*/60000);
        ASSERT_TRUE(reply.has_value()) << "subscriber " << i;
        QueryRequest request = shared;
        request.id = 200 + i;
        EXPECT_EQ(*reply, expected_reply(local, request)) << "subscriber " << i;
    }
    ASSERT_TRUE(blocker.read_reply(/*timeout_ms=*/60000).has_value());

    // The response counter is bumped after the reply line is written, so
    // a client can read its answer a beat before the count lands — give
    // the executor threads a moment to settle before snapshotting.
    const auto deadline = Clock::now() + 2s;
    while (server.stats().responses <
               static_cast<std::size_t>(kSubscribers) + 1 &&
           Clock::now() < deadline)
        std::this_thread::sleep_for(1ms);

    const QueryServer::Stats stats = server.stats();
    // The blocker ran, the shared question ran once; the other four
    // identical requests coalesced and consumed no executor.
    EXPECT_EQ(stats.backend_runs, 2u);
    EXPECT_EQ(stats.coalesced, static_cast<std::size_t>(kSubscribers - 1));
    EXPECT_EQ(stats.responses, static_cast<std::size_t>(kSubscribers) + 1);
}

TEST(QueryServer, InteractiveProbeCompletesWhileSweepInFlight) {
    QueryServerOptions options;
    options.interactive_executors = 1;
    options.bulk_executors = 1;
    QueryServer server(options);

    const auto [sweep_server_fd, sweep_client_fd] = socket_pair();
    server.serve_fd(sweep_server_fd);
    QueryClient sweeper(sweep_client_fd);

    const auto [probe_server_fd, probe_client_fd] = socket_pair();
    server.serve_fd(probe_server_fd);
    QueryClient prober(probe_client_fd);

    ASSERT_TRUE(sweeper.send(blocking_bulk_query(1)));
    std::this_thread::sleep_for(50ms);
    ASSERT_EQ(server.stats().bulk_done, 0u)
        << "the sweep finished before the probe was sent";

    // The probe must be answered by the reserved interactive lane while
    // the sweep still holds the bulk lane — not queued behind it.
    const QueryRequest probe =
        make_request(2, QueryOp::Detects, "MATS+", "SAF,TF");
    const auto probe_reply = prober.roundtrip(probe, /*timeout_ms=*/30000);
    const Clock::time_point probe_done = Clock::now();
    ASSERT_TRUE(probe_reply.has_value());
    ASSERT_EQ(server.stats().bulk_done, 0u)
        << "the sweep finished before the probe's reply arrived";
    const engine::Engine local;
    EXPECT_EQ(*probe_reply, expected_reply(local, probe));

    const auto sweep_reply = sweeper.read_reply(/*timeout_ms=*/120000);
    const Clock::time_point sweep_done = Clock::now();
    ASSERT_TRUE(sweep_reply.has_value());
    EXPECT_LT(probe_done, sweep_done)
        << "interactive probe was gated behind the in-flight sweep";
}

TEST(QueryServer, RepeatedSweepIsAnsweredFromTheSweepCache) {
    QueryServer server;
    const engine::Engine local;
    const QueryRequest sweep = make_request(1, QueryOp::Sweep, "MATS+", "SAF");

    // Two separate sessions — the cache is server-wide, not per-session.
    std::optional<std::string> first;
    {
        const auto [server_fd, client_fd] = socket_pair();
        server.serve_fd(server_fd);
        QueryClient client(client_fd);
        first = client.roundtrip(sweep, 30000);
    }
    const auto [server_fd, client_fd] = socket_pair();
    server.serve_fd(server_fd);
    QueryClient client(client_fd);
    QueryRequest again = sweep;
    again.id = 2;
    const auto second = client.roundtrip(again, 30000);

    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*first, expected_reply(local, sweep));
    EXPECT_EQ(*second, expected_reply(local, again));

    const QueryServer::Stats stats = server.stats();
    EXPECT_EQ(stats.backend_runs, 1u);
    EXPECT_EQ(stats.sweep_cache_hits, 1u);
}

TEST(QueryServer, MalformedInputGetsAnErrorAndTheConnectionSurvives) {
    QueryServer server;
    const auto [server_fd, client_fd] = socket_pair();
    server.serve_fd(server_fd);
    LineChannel raw(client_fd);

    const auto expect_error = [&raw](const std::string& line,
                                     std::int64_t id) {
        ASSERT_TRUE(raw.write_line(line));
        std::string reply;
        ASSERT_EQ(raw.read_line(reply, 30000), LineChannel::ReadStatus::Ok)
            << line;
        const Json root = Json::parse(reply);
        ASSERT_NE(root.find("ok"), nullptr) << reply;
        EXPECT_FALSE(root.find("ok")->as_bool()) << reply;
        ASSERT_NE(root.find("id"), nullptr) << reply;
        EXPECT_EQ(root.find("id")->as_int(), id) << reply;
        ASSERT_NE(root.find("error"), nullptr) << reply;
        EXPECT_FALSE(root.find("error")->as_string().empty()) << reply;
    };

    expect_error("this is not json", 0);
    expect_error(R"({"id": 41, "op": "warp-core"})", 41);
    expect_error(R"({"id": 42, "op": "detects"})", 42);  // no test
    expect_error(
        R"({"id": 43, "op": "detects", "test": "NoSuchMarch!!", "kinds": "SAF"})",
        43);
    expect_error(
        R"({"id": 44, "op": "detects", "test": "MATS+", "kinds": "XYZZY"})",
        44);
    expect_error(
        R"({"id": 45, "op": "detects", "test": "MATS+", "kinds": "SAF", "n": -3})",
        45);
    // One past the ⇕ expansion cap: 2^17 resolutions is out of range.
    expect_error(
        R"({"id": 46, "op": "detects", "test": "MATS+", "kinds": "SAF", "max_any": 17})",
        46);

    // Seven bad lines later the session still answers real questions.
    const QueryRequest request =
        make_request(47, QueryOp::Detects, "MATS+", "SAF,TF");
    ASSERT_TRUE(raw.write_line(render_request(request)));
    std::string reply;
    ASSERT_EQ(raw.read_line(reply, 30000), LineChannel::ReadStatus::Ok);
    const engine::Engine local;
    EXPECT_EQ(reply, expected_reply(local, request));

    const QueryServer::Stats stats = server.stats();
    EXPECT_EQ(stats.errors, 7u);
    EXPECT_EQ(stats.requests, 8u);
}

TEST(QueryServer, PingAndStatsAnswerWithoutABackendRun) {
    QueryServer server;
    const auto [server_fd, client_fd] = socket_pair();
    server.serve_fd(server_fd);
    QueryClient client(client_fd);

    QueryRequest ping;
    ping.id = 9;
    ping.op = QueryOp::Ping;
    const auto pong = client.roundtrip(ping, 30000);
    ASSERT_TRUE(pong.has_value());
    const Json pong_root = Json::parse(*pong);
    EXPECT_EQ(pong_root.find("id")->as_int(), 9);
    EXPECT_TRUE(pong_root.find("ok")->as_bool());
    ASSERT_NE(pong_root.find("pong"), nullptr);
    EXPECT_TRUE(pong_root.find("pong")->as_bool());

    QueryRequest stats_request;
    stats_request.id = 10;
    stats_request.op = QueryOp::Stats;
    const auto stats_reply = client.roundtrip(stats_request, 30000);
    ASSERT_TRUE(stats_reply.has_value());
    const Json stats_root = Json::parse(*stats_reply);
    EXPECT_TRUE(stats_root.find("ok")->as_bool());
    const Json* body = stats_root.find("stats");
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(body->find("backend_runs")->as_int(), 0);
    EXPECT_GE(body->find("requests")->as_int(), 1);
    EXPECT_EQ(server.stats().backend_runs, 0u);
}

TEST(QueryServer, StatsOpReportsPerWantAndCacheCounters) {
    QueryServer server;
    const auto [server_fd, client_fd] = socket_pair();
    server.serve_fd(server_fd);
    QueryClient client(client_fd);

    QueryRequest detects;
    detects.id = 1;
    detects.op = QueryOp::Detects;
    detects.test = "MATS+";
    detects.kinds = "SAF";
    ASSERT_TRUE(client.roundtrip(detects, 30000).has_value());
    QueryRequest all = detects;
    all.id = 2;
    all.op = QueryOp::DetectsAll;
    ASSERT_TRUE(client.roundtrip(all, 30000).has_value());
    ASSERT_TRUE(client.roundtrip(all, 30000).has_value());

    QueryRequest stats_request;
    stats_request.id = 3;
    stats_request.op = QueryOp::Stats;
    const auto reply = client.roundtrip(stats_request, 30000);
    ASSERT_TRUE(reply.has_value());
    const Json root = Json::parse(*reply);
    const Json* body = root.find("stats");
    ASSERT_NE(body, nullptr);
    // Per-Want counts summed over the interactive and bulk engines. The
    // second DetectsAll may be coalesced or served again — >= 1, == for
    // Detects which ran exactly once.
    EXPECT_EQ(body->find("want_detects")->as_int(), 1);
    EXPECT_GE(body->find("want_detects_all")->as_int(), 1);
    EXPECT_EQ(body->find("want_traces")->as_int(), 0);
    EXPECT_EQ(body->find("want_sweeps")->as_int(), 0);
    EXPECT_EQ(body->find("engine_queries")->as_int(),
              body->find("want_detects")->as_int() +
                  body->find("want_detects_all")->as_int());
    // The population cache counters cover both engines (shared cache):
    // three backend-run-worthy requests, at most one miss per universe.
    EXPECT_GE(body->find("cache_hits")->as_int() +
                  body->find("cache_misses")->as_int(),
              1);
}

/// The accept loop turns Nagle off on every connection it adopts. The
/// server runs in this process, so its end of the connection is among the
/// process's own fds: a TCP socket bound to the server port that has a
/// peer (the listening socket has none).
TEST(QueryServer, AcceptedSocketsHaveNagleOff) {
    QueryServer server;
    const std::uint16_t port = server.listen(0);
    QueryClient client("127.0.0.1", port);
    QueryRequest ping;
    ping.id = 1;
    ping.op = QueryOp::Ping;
    ASSERT_TRUE(client.roundtrip(ping, 30000).has_value());

    int accepted = 0;
    for (int fd = 0; fd < 1024; ++fd) {
        sockaddr_in local{};
        socklen_t len = sizeof(local);
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) !=
                0 ||
            local.sin_family != AF_INET || ntohs(local.sin_port) != port)
            continue;
        sockaddr_in peer{};
        len = sizeof(peer);
        if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0)
            continue;
        int nodelay = 0;
        len = sizeof(nodelay);
        ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
                  0);
        EXPECT_NE(nodelay, 0) << "accepted fd " << fd;
        ++accepted;
    }
    EXPECT_EQ(accepted, 1);
}

/// Pipelining must not be slower than waiting for each reply. With Nagle
/// on the server's socket every reply after the first waited for the
/// client's delayed ACK, and pipelined pings ran at a fraction of the
/// one-deep rate on the same connection. Best of three rounds each, so a
/// scheduling hiccup in one round does not decide the verdict.
TEST(QueryServer, PipelinedPingsKeepUpWithOneDeep) {
    QueryServer server;
    const std::uint16_t port = server.listen(0);
    QueryClient client("127.0.0.1", port);
    constexpr int kPings = 200;
    QueryRequest ping;
    ping.op = QueryOp::Ping;

    const auto one_deep = [&] {
        const auto start = Clock::now();
        for (int i = 0; i < kPings; ++i) {
            ping.id = i;
            EXPECT_TRUE(client.roundtrip(ping, 30000).has_value());
        }
        return Clock::now() - start;
    };
    const auto pipelined = [&] {
        const auto start = Clock::now();
        for (int i = 0; i < kPings; ++i) {
            ping.id = i;
            EXPECT_TRUE(client.send(ping));
        }
        for (int i = 0; i < kPings; ++i)
            EXPECT_TRUE(client.read_reply(30000).has_value());
        return Clock::now() - start;
    };

    auto best_one_deep = Clock::duration::max();
    auto best_pipelined = Clock::duration::max();
    for (int round = 0; round < 3; ++round) {
        best_one_deep = std::min(best_one_deep, one_deep());
        best_pipelined = std::min(best_pipelined, pipelined());
    }
    const auto us = [](Clock::duration d) {
        return std::chrono::duration_cast<std::chrono::microseconds>(d)
            .count();
    };
    EXPECT_LE(best_pipelined, best_one_deep)
        << kPings << " pings: pipelined " << us(best_pipelined)
        << " us, one-deep " << us(best_one_deep) << " us";
}

}  // namespace
}  // namespace mtg::net
