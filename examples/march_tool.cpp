/// \file march_tool.cpp
/// Command-line front end combining the library's main workflows:
///
///   march_tool generate <fault-list>
///       generate an optimal March test (with §6 report)
///   march_tool verify "<march-test>" <fault-list>
///       simulate an existing March test against a fault list
///   march_tool diagnose "<march-test>" <fault-list>
///       print the fault dictionary and diagnostic resolution
///   march_tool word <fault-list> <width>
///       generate, then lift to W-bit words with counting backgrounds
///   march_tool serve <port>
///       run a fleet worker: answer shard queries on a TCP port
///       (SIGTERM/SIGINT close the listener, drain connections, exit 0)
///   march_tool fleet "<march-test>" <fault-list> <host:port>...
///       verify over remote workers (the RemoteBackend coordinator)
///   march_tool chaos "<march-test>" <kinds|all> <seed> [peers]
///       replay one seeded chaos schedule over a loopback fleet and
///       check the results against the local packed oracle
///   march_tool query-serve <port>
///       run the persistent query server: one long-lived Engine pair
///       (shared population cache, prebuilt sweep results, query
///       coalescing, two-class admission) behind the line-JSON protocol
///       (SIGTERM/SIGINT stop the server and drain sessions)
///   march_tool query <host:port> <op> "<test>" <fault-list> [word
///       [words width]]
///       one query against a running query server; or
///   march_tool query <host:port> --replay <file>
///       pipeline every request line of <file> (the line-JSON request
///       format) and print the replies in completion order
///   march_tool synth <fault-list> [--beam B] [--lookahead K] [--seed S]
///       synthesise a March test from scratch by beam search over the
///       slot IR (src/synth/), probing one placement per class and
///       accepting the first candidate that covers them all; prints the
///       test, its complexity, and the probe/cache counters
///
/// March tests are written in the conventional notation, e.g.
/// "{~(w0); ^(r0,w1); v(r1,w0)}"; fault lists are comma-separated families
/// (SAF, TF, ADF, AF2, CFin, CFid, CFst, WDF, RDF, DRDF, IRF, DRF) or
/// single primitives such as CFid<^,1>.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/generator.hpp"
#include "diagnosis/dictionary.hpp"
#include "engine/engine.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "net/chaos.hpp"
#include "net/framing.hpp"
#include "net/query_protocol.hpp"
#include "net/query_server.hpp"
#include "net/remote_backend.hpp"
#include "net/worker.hpp"
#include "setcover/coverage_matrix.hpp"
#include "synth/beam_search.hpp"
#include "word/word_march.hpp"

namespace {

using namespace mtg;

int usage() {
    std::fprintf(stderr,
                 "usage:\n"
                 "  march_tool generate <fault-list>\n"
                 "  march_tool verify \"<march-test>\" <fault-list>\n"
                 "  march_tool diagnose \"<march-test>\" <fault-list>\n"
                 "  march_tool word <fault-list> <width>\n"
                 "  march_tool serve <port>\n"
                 "  march_tool fleet \"<march-test>\" <fault-list> "
                 "<host:port>...\n"
                 "  march_tool chaos \"<march-test>\" "
                 "<kill,delay,garbage,truncate,flap,dribble|all> <seed> "
                 "[peers]\n"
                 "  march_tool query-serve <port>\n"
                 "  march_tool query <host:port> <op> \"<march-test>\" "
                 "<fault-list> [word [words width]]\n"
                 "  march_tool query <host:port> --replay <file>\n"
                 "  march_tool synth <fault-list> [--beam B] "
                 "[--lookahead K] [--seed S]\n");
    return 2;
}

march::MarchTest parse_test_arg(const std::string& text) {
    try {
        return march::find_march_test(text).test;
    } catch (const std::invalid_argument&) {
        return march::parse_march(text);
    }
}

int cmd_generate(const std::string& list) {
    core::Generator generator;
    const auto result = generator.generate_for(list);
    std::printf("%s\n", result.test.str(march::Notation::Unicode).c_str());
    std::printf("complexity:    %dn\n", result.complexity);
    std::printf("complete:      %s\n", result.valid ? "yes" : "NO");
    std::printf("non-redundant: %s\n",
                result.redundancy.non_redundant ? "yes" : "NO");
    std::printf("time:          %.3f s  (%d class combinations)\n",
                result.seconds, result.combinations_tried);
    return result.valid ? 0 : 1;
}

int cmd_verify(const std::string& text, const std::string& list) {
    const auto test = parse_test_arg(text);
    const auto kinds = fault::parse_fault_kinds(list);
    if (!march::is_well_formed(test)) {
        std::printf("ILL-FORMED: the test reads unknown or wrong values on "
                    "a fault-free memory\n");
        return 1;
    }
    const engine::Engine& engine = engine::Engine::global();
    bool all = true;
    for (fault::FaultKind kind : kinds) {
        const bool ok = engine.covers_everywhere(test, kind);
        std::printf("%-12s %s\n", fault::fault_kind_name(kind).c_str(),
                    ok ? "covered" : "ESCAPES");
        all = all && ok;
    }
    const auto report = setcover::analyse_redundancy(test, kinds);
    std::printf("non-redundant: %s\n", report.non_redundant ? "yes" : "NO");
    return all ? 0 : 1;
}

int cmd_diagnose(const std::string& text, const std::string& list) {
    const auto test = parse_test_arg(text);
    const auto dict = diagnosis::FaultDictionary::build(
        test, fault::parse_fault_kinds(list));
    std::printf("%s", dict.str().c_str());
    std::printf("resolution: %.2f (%d/%d distinguished)\n", dict.resolution(),
                dict.distinguished_count(), dict.detected_count());
    return 0;
}

int cmd_word(const std::string& list, int width) {
    core::Generator generator;
    const auto result = generator.generate_for(list);
    if (!result.valid) {
        std::printf("generation failed\n");
        return 1;
    }
    const auto backgrounds = word::counting_backgrounds(width);
    word::WordRunOptions opts;
    opts.width = width;
    std::printf("bit-oriented:  %s (%dn)\n",
                result.test.str(march::Notation::Unicode).c_str(),
                result.complexity);
    std::printf("word-oriented: %zu backgrounds, %d ops/word\n",
                backgrounds.size(),
                word::word_complexity(result.test, backgrounds));
    const engine::Engine& engine = engine::Engine::global();
    bool all = true;
    for (fault::FaultKind kind : fault::parse_fault_kinds(list)) {
        const bool ok =
            engine.covers_everywhere(result.test, backgrounds, kind, opts);
        std::printf("%-12s %s\n", fault::fault_kind_name(kind).c_str(),
                    ok ? "covered" : "ESCAPES");
        all = all && ok;
    }
    return all ? 0 : 1;
}

volatile std::sig_atomic_t g_serve_stop = 0;
volatile int g_serve_listen_fd = -1;

extern "C" void serve_signal_handler(int) {
    g_serve_stop = 1;
    // Wake the blocked accept (shutdown is async-signal-safe); the loop
    // sees g_serve_stop and drains instead of treating it as an error.
    if (g_serve_listen_fd >= 0) ::shutdown(g_serve_listen_fd, SHUT_RDWR);
}

int cmd_serve(int port) {
    const int listen_fd = net::tcp_listen(static_cast<std::uint16_t>(port));
    g_serve_listen_fd = listen_fd;
    struct sigaction action{};
    action.sa_handler = serve_signal_handler;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    std::fprintf(stderr, "march_tool serve: listening on port %d\n", port);
    std::vector<std::thread> sessions;
    for (;;) {
        int fd = -1;
        try {
            fd = net::tcp_accept(listen_fd);
        } catch (const std::exception&) {
            if (g_serve_stop) break;
            throw;
        }
        if (g_serve_stop) {
            ::close(fd);
            break;
        }
        // One session thread per coordinator connection, joined on
        // shutdown so in-flight queries drain before exit.
        sessions.emplace_back([fd] { net::serve_connection(fd); });
    }
    ::close(listen_fd);
    std::fprintf(stderr,
                 "march_tool serve: shutting down, draining %zu "
                 "connection(s)\n",
                 sessions.size());
    for (std::thread& session : sessions)
        if (session.joinable()) session.join();
    return 0;
}

int cmd_fleet(const std::string& text, const std::string& list,
              const std::vector<std::string>& peers) {
    const auto test = parse_test_arg(text);
    const auto kinds = fault::parse_fault_kinds(list);
    std::vector<int> fds;
    fds.reserve(peers.size());
    for (const std::string& peer : peers) {
        const std::size_t colon = peer.rfind(':');
        if (colon == std::string::npos)
            throw std::invalid_argument("peer must be host:port: " + peer);
        fds.push_back(net::tcp_connect(
            peer.substr(0, colon),
            static_cast<std::uint16_t>(
                std::atoi(peer.c_str() + colon + 1)),
            /*timeout_ms=*/5000));
    }
    const engine::Engine engine(engine::make_remote_backend(std::move(fds)));
    std::printf("fleet: %zu peer(s)\n", peers.size());
    bool all = true;
    for (fault::FaultKind kind : kinds) {
        const bool ok = engine.covers_everywhere(test, kind);
        std::printf("%-12s %s\n", fault::fault_kind_name(kind).c_str(),
                    ok ? "covered" : "ESCAPES");
        all = all && ok;
    }
    return all ? 0 : 1;
}

int cmd_query_serve(int port) {
    net::QueryServer server;
    const std::uint16_t bound =
        server.listen(static_cast<std::uint16_t>(port));
    // The handler only sets the flag (g_serve_listen_fd stays -1); the
    // main thread polls it and runs the orderly stop() itself.
    struct sigaction action{};
    action.sa_handler = serve_signal_handler;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    std::fprintf(stderr, "march_tool query-serve: listening on port %u\n",
                 bound);
    while (!g_serve_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const net::QueryServer::Stats stats = server.stats();
    server.stop();
    std::fprintf(stderr,
                 "march_tool query-serve: stopped after %zu request(s), "
                 "%zu backend run(s), %zu coalesced, %zu sweep cache "
                 "hit(s)\n",
                 stats.requests, stats.backend_runs, stats.coalesced,
                 stats.sweep_cache_hits);
    return 0;
}

std::pair<std::string, std::uint16_t> parse_peer_arg(
    const std::string& peer) {
    const std::size_t colon = peer.rfind(':');
    if (colon == std::string::npos)
        throw std::invalid_argument("peer must be host:port: " + peer);
    return {peer.substr(0, colon),
            static_cast<std::uint16_t>(std::atoi(peer.c_str() + colon + 1))};
}

int cmd_query(const std::string& peer, std::vector<std::string> args) {
    const auto [host, port] = parse_peer_arg(peer);
    net::QueryClient client(host, port, /*connect_timeout_ms=*/5000);
    if (args.size() >= 2 && args[0] == "--replay") {
        // Pipelined replay: every request line goes out before the first
        // reply is awaited; the server answers in completion order, so
        // replies are matched by id, not position.
        std::ifstream file(args[1]);
        if (!file) throw std::runtime_error("cannot open " + args[1]);
        int sent = 0;
        std::string line;
        while (std::getline(file, line)) {
            if (line.empty()) continue;
            if (!client.send(net::parse_request(line)))
                throw std::runtime_error("connection lost while sending");
            ++sent;
        }
        for (int i = 0; i < sent; ++i) {
            const auto reply = client.read_reply(/*timeout_ms=*/60000);
            if (!reply.has_value()) {
                std::fprintf(stderr, "query: only %d/%d replies arrived\n",
                             i, sent);
                return 1;
            }
            std::printf("%s\n", reply->c_str());
        }
        return 0;
    }
    if (args.empty()) return usage();
    // Assemble the request as a protocol line and round-trip it through
    // parse_request so the CLI validates exactly what the server would.
    net::Json root = net::Json::object();
    root.set("id", net::Json(std::int64_t{1}));
    root.set("op", net::Json(args[0]));
    if (args.size() > 1) root.set("test", net::Json(args[1]));
    if (args.size() > 2) root.set("kinds", net::Json(args[2]));
    if (args.size() > 3 && args[3] == "word") {
        root.set("universe", net::Json("word"));
        if (args.size() > 5) {
            root.set("words",
                     net::Json(std::int64_t{std::atoi(args[4].c_str())}));
            root.set("width",
                     net::Json(std::int64_t{std::atoi(args[5].c_str())}));
        }
    }
    const auto reply = client.roundtrip(net::parse_request(root.dump()),
                                        /*timeout_ms=*/60000);
    if (!reply.has_value()) {
        std::fprintf(stderr, "query: no reply\n");
        return 1;
    }
    std::printf("%s\n", reply->c_str());
    const net::Json parsed = net::Json::parse(*reply);
    const net::Json* ok = parsed.find("ok");
    return ok != nullptr && ok->kind() == net::Json::Kind::Bool &&
                   ok->as_bool()
               ? 0
               : 1;
}

int cmd_synth(const std::string& list, std::vector<std::string> flags) {
    synth::SearchConfig search;
    for (std::size_t i = 0; i + 1 < flags.size(); i += 2) {
        if (flags[i] == "--beam")
            search.beam_width = std::atoi(flags[i + 1].c_str());
        else if (flags[i] == "--lookahead")
            search.lookahead = std::atoi(flags[i + 1].c_str());
        else if (flags[i] == "--seed")
            search.seed = std::strtoull(flags[i + 1].c_str(), nullptr, 10);
        else
            return usage();
    }
    if (flags.size() % 2 != 0) return usage();

    const auto kinds = fault::parse_fault_kinds(list);
    search.include_delay = std::any_of(kinds.begin(), kinds.end(),
                                       fault::needs_wait);

    const engine::Engine& engine = engine::Engine::global();
    synth::ScorerConfig scorer_config;
    scorer_config.kinds = kinds;
    synth::Scorer scorer(engine, scorer_config);
    const synth::SearchResult result =
        synth::BeamSearch(scorer, search).run();

    if (!result.found()) {
        std::printf("no covering test within %d element(s) "
                    "(best class coverage %zu/%zu)\n",
                    search.max_slots, result.best_covered, result.best_total);
        return 1;
    }
    std::printf("%s\n", result.test.str(march::Notation::Unicode).c_str());
    std::printf("complexity: %dn\n", result.test.complexity());
    std::printf("rounds:     %d\n", result.rounds);
    std::printf("probes:     %zu (%zu probe-cache hit(s), %zu full "
                "check(s))\n",
                result.probe_stats.probes, result.probe_stats.cache_hits,
                result.probe_stats.full_checks);
    const engine::Engine::Stats stats = engine.stats();
    std::printf("engine:     %zu quer(ies), population cache %zu hit(s) / "
                "%zu miss(es)\n",
                stats.queries, stats.cache.hits, stats.cache.misses);

    // Context: the shortest library test covering the same kinds.
    const march::NamedMarchTest* best = nullptr;
    for (const march::NamedMarchTest& known : march::known_march_tests()) {
        if (!engine.covers_all(known.test, kinds)) continue;
        if (best == nullptr ||
            known.test.complexity() < best->test.complexity())
            best = &known;
    }
    if (best != nullptr)
        std::printf("library:    %s (%dn)\n", best->name.c_str(),
                    best->test.complexity());
    return 0;
}

int cmd_chaos(const std::string& text, const std::string& kinds_csv,
              std::uint64_t seed, int peers) {
    net::ChaosConfig config;
    config.seed = seed;
    config.peers = peers;
    config.kinds = net::parse_chaos_kinds(kinds_csv);
    const auto report = net::run_chaos(parse_test_arg(text), config);
    std::printf("schedule: %s\n", report.schedule.c_str());
    for (std::size_t p = 0; p < report.connections.size(); ++p)
        std::printf("peer %zu: %d connection(s)\n", p,
                    report.connections[p]);
    std::printf("%d/%d checks bit-identical to packed\n",
                report.checks - static_cast<int>(report.mismatches.size()),
                report.checks);
    for (const std::string& mismatch : report.mismatches)
        std::printf("MISMATCH: %s\n", mismatch.c_str());
    return report.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) return usage();
    const std::string command = argv[1];
    try {
        if (command == "generate") return cmd_generate(argv[2]);
        if (command == "verify" && argc >= 4)
            return cmd_verify(argv[2], argv[3]);
        if (command == "diagnose" && argc >= 4)
            return cmd_diagnose(argv[2], argv[3]);
        if (command == "word" && argc >= 4)
            return cmd_word(argv[2], std::atoi(argv[3]));
        if (command == "serve") return cmd_serve(std::atoi(argv[2]));
        if (command == "fleet" && argc >= 5)
            return cmd_fleet(
                argv[2], argv[3],
                std::vector<std::string>(argv + 4, argv + argc));
        if (command == "query-serve")
            return cmd_query_serve(std::atoi(argv[2]));
        if (command == "query" && argc >= 4)
            return cmd_query(
                argv[2], std::vector<std::string>(argv + 3, argv + argc));
        if (command == "synth")
            return cmd_synth(
                argv[2], std::vector<std::string>(argv + 3, argv + argc));
        if (command == "chaos" && argc >= 5)
            return cmd_chaos(
                argv[2], argv[3],
                static_cast<std::uint64_t>(std::strtoull(argv[4], nullptr,
                                                         10)),
                argc >= 6 ? std::atoi(argv[5]) : 2);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage();
}
