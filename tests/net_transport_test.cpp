/// Wire-format and framing unit tests for the remote transport: every
/// message kind must survive an encode/decode round trip bit-for-bit,
/// every malformed payload must be rejected with WireFormatError (never
/// accepted, never a crash), and FrameChannel must report the exact
/// failure taxonomy (Timeout before a frame, Corrupt mid-frame) the
/// coordinator's fault tolerance is built on. Also covers the CRC32C
/// frame trailer, a worker serving from the first frame, the
/// partial-write send path and the bounded tcp_connect.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "march/library.hpp"
#include "net/crc32c.hpp"
#include "net/framing.hpp"
#include "net/wire.hpp"
#include "net/worker.hpp"
#include "util/contracts.hpp"
#include "word/background.hpp"

namespace mtg::net {
namespace {

using fault::FaultKind;

WireQuery sample_bit_query() {
    WireQuery query;
    query.id = 0x1122334455667788ull;
    query.universe = UniverseTag::Bit;
    query.want = WantTag::Detects;
    query.range_begin = 504;
    query.range_end = 507;
    query.test = march::march_c_minus();
    query.bit_opts = {.memory_size = 24, .max_any_expansion = 6};
    query.bit_faults = {
        sim::InjectedFault::single(FaultKind::Saf0, 3),
        sim::InjectedFault::coupling(FaultKind::CfidUp0, 1, 7),
        sim::InjectedFault::coupling(FaultKind::CfinDown, 7, 1),
    };
    return query;
}

WireQuery sample_word_query() {
    WireQuery query;
    query.id = 42;
    query.universe = UniverseTag::Word;
    query.want = WantTag::Traces;
    query.range_begin = 0;
    query.range_end = 2;
    query.test = march::find_march_test("MATS").test;
    query.word_opts.words = 6;
    query.word_opts.width = 4;
    query.word_opts.max_any_expansion = 4;
    query.backgrounds = word::counting_backgrounds(4);
    query.word_faults = {
        word::InjectedBitFault::single(FaultKind::Rdf1, {2, 3}),
        word::InjectedBitFault::coupling(FaultKind::CfidUp1, {0, 0}, {5, 3}),
    };
    return query;
}

TEST(WireFormat, BitQueryRoundTrip) {
    const WireQuery query = sample_bit_query();
    const Message decoded = decode_message(encode_query(query));
    ASSERT_EQ(decoded.type, MessageType::Query);
    const WireQuery& got = decoded.query;
    EXPECT_EQ(got.id, query.id);
    EXPECT_EQ(got.universe, query.universe);
    EXPECT_EQ(got.want, query.want);
    EXPECT_EQ(got.range_begin, query.range_begin);
    EXPECT_EQ(got.range_end, query.range_end);
    EXPECT_EQ(got.test.str(), query.test.str());
    EXPECT_EQ(got.bit_opts.memory_size, query.bit_opts.memory_size);
    EXPECT_EQ(got.bit_opts.max_any_expansion,
              query.bit_opts.max_any_expansion);
    EXPECT_EQ(got.bit_faults, query.bit_faults);
}

TEST(WireFormat, WordQueryRoundTrip) {
    const WireQuery query = sample_word_query();
    const Message decoded = decode_message(encode_query(query));
    ASSERT_EQ(decoded.type, MessageType::Query);
    const WireQuery& got = decoded.query;
    EXPECT_EQ(got.id, query.id);
    EXPECT_EQ(got.universe, UniverseTag::Word);
    EXPECT_EQ(got.want, WantTag::Traces);
    EXPECT_EQ(got.test.str(), query.test.str());
    EXPECT_EQ(got.word_opts.words, query.word_opts.words);
    EXPECT_EQ(got.word_opts.width, query.word_opts.width);
    EXPECT_EQ(got.word_opts.max_any_expansion,
              query.word_opts.max_any_expansion);
    EXPECT_EQ(got.backgrounds, query.backgrounds);
    EXPECT_EQ(got.word_faults, query.word_faults);
}

TEST(WireFormat, VerdictResultRoundTripAcrossMaskBoundaries) {
    // 67 verdicts: straddles the 64-bit mask boundary, partial final mask.
    WireResult result;
    result.id = 7;
    result.universe = UniverseTag::Bit;
    result.want = WantTag::Detects;
    result.range_begin = 0;
    result.range_end = 67;
    for (int i = 0; i < 67; ++i) result.verdicts.push_back(i % 3 != 0);
    const Message decoded = decode_message(encode_result(result));
    ASSERT_EQ(decoded.type, MessageType::Result);
    EXPECT_EQ(decoded.result.id, result.id);
    EXPECT_EQ(decoded.result.verdicts, result.verdicts);
}

TEST(WireFormat, TraceResultRoundTrip) {
    WireResult result;
    result.id = 9;
    result.universe = UniverseTag::Bit;
    result.want = WantTag::Traces;
    result.range_begin = 10;
    result.range_end = 12;
    sim::RunTrace trace;
    trace.detected = true;
    trace.failing_reads = {{1, 0}, {2, 1}};
    trace.failing_observations = {{{1, 0}, 3}, {{2, 1}, 0}};
    result.traces = {trace, sim::RunTrace{}};
    const Message decoded = decode_message(encode_result(result));
    ASSERT_EQ(decoded.type, MessageType::Result);
    ASSERT_EQ(decoded.result.traces.size(), 2u);
    EXPECT_EQ(decoded.result.traces[0].detected, trace.detected);
    EXPECT_EQ(decoded.result.traces[0].failing_reads, trace.failing_reads);
    EXPECT_EQ(decoded.result.traces[0].failing_observations,
              trace.failing_observations);
    EXPECT_FALSE(decoded.result.traces[1].detected);
}

TEST(WireFormat, WordTraceResultRoundTrip) {
    WireResult result;
    result.id = 11;
    result.universe = UniverseTag::Word;
    result.want = WantTag::Traces;
    result.range_begin = 0;
    result.range_end = 1;
    word::WordRunTrace trace;
    trace.detected = true;
    trace.failing_reads = {{0, {1, 0}}, {2, {2, 1}}};
    trace.failing_observations = {{1, {1, 0}, 4, 0b1011}};
    result.word_traces = {trace};
    const Message decoded = decode_message(encode_result(result));
    ASSERT_EQ(decoded.type, MessageType::Result);
    ASSERT_EQ(decoded.result.word_traces.size(), 1u);
    EXPECT_EQ(decoded.result.word_traces[0], trace);
}

TEST(WireFormat, DetectsAllAndErrorRoundTrip) {
    WireResult result;
    result.id = 13;
    result.want = WantTag::DetectsAll;
    result.range_begin = 0;
    result.range_end = 504;
    result.all = false;
    const Message decoded = decode_message(encode_result(result));
    ASSERT_EQ(decoded.type, MessageType::Result);
    EXPECT_FALSE(decoded.result.all);

    const Message error =
        decode_message(encode_error({21, "worker exploded"}));
    ASSERT_EQ(error.type, MessageType::Error);
    EXPECT_EQ(error.error.id, 21u);
    EXPECT_EQ(error.error.message, "worker exploded");
}

TEST(WireFormat, RejectsMalformedPayloads) {
    const std::vector<std::uint8_t> encoded =
        encode_query(sample_bit_query());

    // Empty, garbage, wrong version, unknown message type.
    EXPECT_THROW((void)decode_message({}), WireFormatError);
    const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef};
    EXPECT_THROW((void)decode_message(garbage), WireFormatError);
    std::vector<std::uint8_t> bad_version = encoded;
    bad_version[0] = kWireVersion + 1;
    EXPECT_THROW((void)decode_message(bad_version), WireFormatError);
    for (const std::uint8_t type : {std::uint8_t{4}, std::uint8_t{99}}) {
        std::vector<std::uint8_t> bad_type = encoded;
        bad_type[1] = type;  // 4 sits unassigned between Error and Ping
        EXPECT_THROW((void)decode_message(bad_type), WireFormatError);
    }

    // Every possible truncation must throw, never read out of bounds.
    for (std::size_t keep = 0; keep < encoded.size(); ++keep) {
        const std::span<const std::uint8_t> cut(encoded.data(), keep);
        EXPECT_THROW((void)decode_message(cut), WireFormatError) << keep;
    }
    // Trailing bytes are rejected too: a frame is exactly one message.
    std::vector<std::uint8_t> padded = encoded;
    padded.push_back(0);
    EXPECT_THROW((void)decode_message(padded), WireFormatError);
}

TEST(WireFormat, RejectsRangePopulationMismatch) {
    WireQuery query = sample_bit_query();
    query.range_end = query.range_begin + query.bit_faults.size() + 1;
    EXPECT_THROW((void)decode_message(encode_query(query)), WireFormatError);
}

TEST(Framing, RoundTripAndTimeoutTaxonomy) {
    const auto [a_fd, b_fd] = socket_pair();
    FrameChannel a(a_fd);
    FrameChannel b(b_fd);

    std::vector<std::uint8_t> payload;
    // Nothing sent yet: a bounded recv times out (peer merely slow).
    EXPECT_EQ(b.recv(payload, 10), FrameChannel::RecvStatus::Timeout);

    const std::vector<std::uint8_t> frame = {1, 2, 3, 4, 5};
    ASSERT_TRUE(a.send(frame));
    ASSERT_TRUE(a.send({}));  // empty frames are legal
    EXPECT_EQ(b.recv(payload, 1000), FrameChannel::RecvStatus::Ok);
    EXPECT_EQ(payload, frame);
    EXPECT_EQ(b.recv(payload, 1000), FrameChannel::RecvStatus::Ok);
    EXPECT_TRUE(payload.empty());
}

TEST(Crc32c, KnownAnswerVectors) {
    // The CRC-32C (Castagnoli) check value: crc of the ASCII digits
    // "123456789" is 0xE3069283 in every published table.
    const std::uint8_t digits[] = {'1', '2', '3', '4', '5',
                                   '6', '7', '8', '9'};
    EXPECT_EQ(crc32c(digits), 0xE3069283u);
    EXPECT_EQ(crc32c({}), 0u);
    // 32 zero bytes: another standard vector (iSCSI test pattern).
    const std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
    // Incremental == one-shot.
    EXPECT_EQ(crc32c(std::span(digits).subspan(4),
                     crc32c(std::span(digits).first(4))),
              0xE3069283u);
}

TEST(Crc32c, HardwareAndSoftwareKernelsAgree) {
    // Every length 0..130 with varying alignment offsets: the SSE4.2
    // path (when this CPU has it) and the slice-by-8 tables must be the
    // same function.
    std::vector<std::uint8_t> bytes(160);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 167 + 13);
    for (std::size_t offset : {0u, 1u, 3u, 7u}) {
        for (std::size_t len = 0; len + offset <= 130; ++len) {
            const std::span<const std::uint8_t> slice(bytes.data() + offset,
                                                      len);
            EXPECT_EQ(crc32c(slice), crc32c_software(slice, 0))
                << "offset " << offset << " len " << len;
        }
    }
}

TEST(Framing, V2FramesRoundTripAndRejectCorruption) {
    const auto [a_fd, b_fd] = socket_pair();
    FrameChannel a(a_fd);
    FrameChannel b(b_fd);

    const std::vector<std::uint8_t> frame = {9, 8, 7, 6, 5, 4};
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(a.send(frame));
    ASSERT_TRUE(a.send({}));  // empty frames carry a CRC of nothing
    EXPECT_EQ(b.recv(payload, 1000), FrameChannel::RecvStatus::Ok);
    EXPECT_EQ(payload, frame);
    EXPECT_EQ(b.recv(payload, 1000), FrameChannel::RecvStatus::Ok);
    EXPECT_TRUE(payload.empty());

    // A bit flipped in the payload: the CRC trailer catches it at the
    // frame layer — RecvStatus::Corrupt, before any decode_message.
    std::vector<std::uint8_t> raw;
    const std::uint32_t length = 4;
    const std::uint8_t body[] = {0xaa, 0xbb, 0xcc, 0xdd};
    const std::uint32_t crc = crc32c(body);
    for (int shift : {0, 8, 16, 24})
        raw.push_back(static_cast<std::uint8_t>(length >> shift));
    raw.insert(raw.end(), body, body + sizeof(body));
    raw[4] ^= 0x01;  // corrupt after the CRC was computed
    for (int shift : {0, 8, 16, 24})
        raw.push_back(static_cast<std::uint8_t>(crc >> shift));
    ASSERT_EQ(::write(a.fd(), raw.data(), raw.size()),
              static_cast<ssize_t>(raw.size()));
    EXPECT_EQ(b.recv(payload, 1000), FrameChannel::RecvStatus::Corrupt);
}

TEST(Framing, WorkerServesFromTheFirstFrame) {
    // No handshake: the first frame a coordinator sends is already a
    // CRC-framed Ping or Query, and the worker answers both in kind.
    const auto [coordinator_fd, worker_fd] = socket_pair();
    std::thread worker([fd = worker_fd] { serve_connection(fd); });
    FrameChannel channel(coordinator_fd);

    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(channel.send(encode_ping({77})));
    ASSERT_EQ(channel.recv(payload, 2000), FrameChannel::RecvStatus::Ok);
    const Message pong = decode_message(payload);
    ASSERT_EQ(pong.type, MessageType::Pong);
    EXPECT_EQ(pong.ping.nonce, 77u);

    WireQuery query = sample_bit_query();
    query.range_begin = 0;
    query.range_end = query.bit_faults.size();
    ASSERT_TRUE(channel.send(encode_query(query)));
    ASSERT_EQ(channel.recv(payload, 5000), FrameChannel::RecvStatus::Ok);
    const Message result = decode_message(payload);
    ASSERT_EQ(result.type, MessageType::Result);
    EXPECT_EQ(result.result.id, query.id);

    channel.shutdown();
    worker.join();
}

TEST(Framing, PartialWritesRoundTripLargeFrames) {
    // Shrink the send buffer so ::send() must return short counts: the
    // send loop has to keep resuming mid-frame (and mid-chunk) until a
    // multi-MiB frame is fully on the wire.
    const auto [a_fd, b_fd] = socket_pair();
    const int tiny = 4096;
    ASSERT_EQ(::setsockopt(a_fd, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
              0);
    FrameChannel a(a_fd);  // the CRC trailer rides along as a third chunk
    FrameChannel b(b_fd);

    std::vector<std::uint8_t> big(3u << 20);
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<std::uint8_t>(i * 131 + 7);
    std::thread sender([&a, &big] { ASSERT_TRUE(a.send(big)); });
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(b.recv(payload, 10000), FrameChannel::RecvStatus::Ok);
    sender.join();
    EXPECT_EQ(payload, big);
}

TEST(Framing, TcpConnectTimesOutInsteadOfHanging) {
    // A listener whose accept backlog is saturated and never drained
    // behaves like a blackholed host: the SYN is queued, the handshake
    // never completes, and a blocking connect() would hang for the OS
    // default of minutes. tcp_connect must give up within its timeout.
    const int listen_fd = tcp_listen(0);
    ::listen(listen_fd, 0);  // shrink the backlog to its minimum
    sockaddr_in addr{};
    socklen_t addr_len = sizeof(addr);
    ASSERT_EQ(::getsockname(listen_fd,
                            reinterpret_cast<sockaddr*>(&addr), &addr_len),
              0);
    const std::uint16_t port = ntohs(addr.sin_port);

    std::vector<int> held;
    bool timed_out = false;
    const auto start = std::chrono::steady_clock::now();
    for (int attempt = 0; attempt < 16 && !timed_out; ++attempt) {
        try {
            held.push_back(tcp_connect("127.0.0.1", port,
                                       /*timeout_ms=*/250));
        } catch (const std::runtime_error&) {
            timed_out = true;
        }
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(timed_out);
    EXPECT_LT(elapsed, std::chrono::seconds(10));
    for (const int fd : held) ::close(fd);
    ::close(listen_fd);
}

TEST(Framing, CloseAndCorruptionAreDistinguished) {
    // Note on EINTR: read_exact/send treat EINTR as "zero bytes moved,
    // try again" — a signal delivered mid-frame must never surface as
    // Closed or Corrupt, only a real EOF/error can. The taxonomy below
    // therefore only uses genuine closes and malformed prefixes.
    {
        // Orderly close between frames -> Closed.
        const auto [a_fd, b_fd] = socket_pair();
        FrameChannel b(b_fd);
        { FrameChannel a(a_fd); }  // destructor closes
        std::vector<std::uint8_t> payload;
        EXPECT_EQ(b.recv(payload, 1000), FrameChannel::RecvStatus::Closed);
    }
    {
        // A length prefix promising bytes that never arrive -> Corrupt:
        // a truncated frame can never be resynchronized.
        const auto [a_fd, b_fd] = socket_pair();
        FrameChannel b(b_fd);
        std::thread sender([fd = a_fd] {
            const std::uint8_t truncated[] = {64, 0, 0, 0, 0x01};
            (void)!::write(fd, truncated, sizeof(truncated));
            ::close(fd);
        });
        std::vector<std::uint8_t> payload;
        EXPECT_EQ(b.recv(payload, 1000), FrameChannel::RecvStatus::Corrupt);
        sender.join();
    }
    {
        // An oversized length prefix -> Corrupt, no giant allocation.
        const auto [a_fd, b_fd] = socket_pair();
        FrameChannel b(b_fd);
        std::thread sender([fd = a_fd] {
            const std::uint8_t oversized[] = {0xff, 0xff, 0xff, 0xff};
            (void)!::write(fd, oversized, sizeof(oversized));
            ::close(fd);
        });
        std::vector<std::uint8_t> payload;
        EXPECT_EQ(b.recv(payload, 1000), FrameChannel::RecvStatus::Corrupt);
        sender.join();
    }
}

TEST(Framing, MidFrameStallIsCorruptNotAHang) {
    // A peer that starts a frame and then stops making progress — without
    // closing — used to hold recv() forever (the mid-frame wait was
    // unbounded). With the idle-progress bound it is Corrupt: the stream
    // cannot resync, and the receiver gets its thread back.
    const auto [a_fd, b_fd] = socket_pair();
    FrameChannel b(b_fd);
    b.set_mid_frame_idle_ms(50);
    // Length prefix promising 64 bytes, two payload bytes, then silence.
    // The sender fd stays OPEN for the duration: only the idle bound can
    // end the read.
    const std::uint8_t partial[] = {64, 0, 0, 0, 0x01, 0x02};
    ASSERT_EQ(::write(a_fd, partial, sizeof(partial)),
              static_cast<ssize_t>(sizeof(partial)));
    std::vector<std::uint8_t> payload;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(b.recv(payload, /*timeout_ms=*/-1),
              FrameChannel::RecvStatus::Corrupt);
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_GE(waited, 40);    // the bound, not an instant failure
    EXPECT_LT(waited, 5000);  // and certainly not forever
    ::close(a_fd);
}

TEST(Framing, MidFrameStallInHeaderIsCorrupt) {
    // The stall can hit inside the 4-byte length prefix too: a partial
    // header is already a started frame.
    const auto [a_fd, b_fd] = socket_pair();
    FrameChannel b(b_fd);
    b.set_mid_frame_idle_ms(50);
    const std::uint8_t half_header[] = {64, 0};
    ASSERT_EQ(::write(a_fd, half_header, sizeof(half_header)),
              static_cast<ssize_t>(sizeof(half_header)));
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(b.recv(payload, /*timeout_ms=*/-1),
              FrameChannel::RecvStatus::Corrupt);
    ::close(a_fd);
}

TEST(Framing, SlowButProgressingPeerStillCompletes) {
    // The bound is idle-progress, not total-duration: a peer dribbling
    // one chunk per 20 ms under a 120 ms idle bound takes ~8 bounds'
    // worth of wall clock and must still deliver the frame intact.
    const auto [a_fd, b_fd] = socket_pair();
    FrameChannel a(a_fd);
    FrameChannel b(b_fd);
    b.set_mid_frame_idle_ms(120);
    std::vector<std::uint8_t> frame(64);
    for (std::size_t i = 0; i < frame.size(); ++i)
        frame[i] = static_cast<std::uint8_t>(i * 7);
    std::thread sender([fd = a_fd, &frame] {
        std::uint8_t header[4] = {64, 0, 0, 0};
        (void)!::write(fd, header, sizeof(header));
        for (std::size_t off = 0; off < frame.size(); off += 8) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            (void)!::write(fd, frame.data() + off, 8);
        }
        const std::uint32_t crc = crc32c(frame);
        std::uint8_t trailer[4];
        for (int i = 0; i < 4; ++i)
            trailer[i] = static_cast<std::uint8_t>(crc >> (8 * i));
        (void)!::write(fd, trailer, sizeof(trailer));
    });
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(b.recv(payload, /*timeout_ms=*/-1),
              FrameChannel::RecvStatus::Ok);
    EXPECT_EQ(payload, frame);
    sender.join();
}

TEST(Framing, IdleBoundCannotBeDisabled) {
    // Every started frame is bounded: a negative idle bound is a contract
    // violation that leaves the current bound in place; 0 restores the
    // 30 s default.
    const auto [a_fd, b_fd] = socket_pair();
    FrameChannel b(b_fd);
    EXPECT_EQ(b.mid_frame_idle_ms(), kDefaultMidFrameIdleMs);
    b.set_mid_frame_idle_ms(250);
    EXPECT_THROW(b.set_mid_frame_idle_ms(-1), ContractViolation);
    EXPECT_EQ(b.mid_frame_idle_ms(), 250);
    b.set_mid_frame_idle_ms(0);
    EXPECT_EQ(b.mid_frame_idle_ms(), kDefaultMidFrameIdleMs);
    ::close(a_fd);
}

TEST(Framing, PerChannelFrameCapBindsBothDirections) {
    // The 64 MiB default is per-channel configurable (large word-memory
    // Traces replies can exceed it); the cap moves, the enforcement
    // doesn't — a sender refuses oversize payloads, a receiver rejects
    // oversize length prefixes as Corrupt.
    const auto [a_fd, b_fd] = socket_pair();
    FrameChannel a(a_fd);
    FrameChannel b(b_fd);
    EXPECT_EQ(a.max_frame_bytes(), kMaxFrameBytes);
    a.set_max_frame_bytes(1024);
    EXPECT_EQ(a.max_frame_bytes(), 1024u);

    // Send side: exactly at the cap passes, one byte over is refused
    // (channel stays usable — nothing went on the wire).
    std::vector<std::uint8_t> at_cap(1024, 0x5a);
    std::vector<std::uint8_t> over_cap(1025, 0x5a);
    EXPECT_FALSE(a.send(over_cap));
    ASSERT_TRUE(a.send(at_cap));
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(b.recv(payload, 1000), FrameChannel::RecvStatus::Ok);
    EXPECT_EQ(payload, at_cap);

    // Recv side: a lowered cap turns a legitimate-for-the-peer frame into
    // Corrupt (an oversize prefix must never drive a giant allocation).
    b.set_max_frame_bytes(16);
    ASSERT_TRUE(a.send(at_cap));
    EXPECT_EQ(b.recv(payload, 1000), FrameChannel::RecvStatus::Corrupt);

    // A raised cap admits frames beyond the old bound; 0 restores the
    // default.
    const auto [c_fd, d_fd] = socket_pair();
    FrameChannel c(c_fd);
    FrameChannel d(d_fd);
    c.set_max_frame_bytes(128u << 20);
    d.set_max_frame_bytes(128u << 20);
    std::vector<std::uint8_t> big((64u << 20) + 1, 0x11);
    std::thread sender([&c, &big] { ASSERT_TRUE(c.send(big)); });
    ASSERT_EQ(d.recv(payload, 30000), FrameChannel::RecvStatus::Ok);
    sender.join();
    EXPECT_EQ(payload.size(), big.size());
    d.set_max_frame_bytes(0);
    EXPECT_EQ(d.max_frame_bytes(), kMaxFrameBytes);
}

}  // namespace
}  // namespace mtg::net
