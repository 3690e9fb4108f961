#pragma once

/// \file wire.hpp
/// Versioned binary wire format for shard queries and results — the
/// serialization layer of the multi-host transport.
///
/// Every message travels as one length-prefixed frame (see framing.hpp);
/// this file defines the *payload* encoding. A payload is
///
///   [u8 version][u8 message type][body ...]
///
/// with all multi-byte integers little-endian. Five message types exist:
///
///   Query   — (test, range, want, word options, backgrounds) plus the
///             population slice of the range: the coordinator ships the
///             concrete faults, so a worker is completely stateless (no
///             shared placement code version to keep in sync across a
///             fleet).
///   Result  — the verdict for one range, shaped by the query's want:
///             per-fault verdict bits packed into 64-bit masks (the same
///             lane-mask currency the packed kernels reduce in), one
///             all-detected byte, or serialized guaranteed traces.
///   Error   — a worker-side failure description; the coordinator treats
///             it like a dead peer and re-dispatches the range.
///   Ping    — coordinator heartbeat probe carrying a nonce; answered
///   Pong    — immediately by the worker, echoing the nonce. The peer
///             supervisor uses pong age to drive the Alive → Suspect →
///             Dead lifecycle. Pings are not queries: hooks and query
///             counters ignore them.
///
/// One fault universe crosses the wire, the word universe: a Query
/// carries WordRunOptions, backgrounds and an InjectedBitFault slice. A
/// bit query travels as its width-1 word view (word::bit_view: n words of
/// width 1 under the solid background), and the coordinator maps its
/// trace replies back with word::bit_trace. Query ids are opaque u64s
/// chosen by the coordinator; a Result echoes the id and range of its
/// Query so replies can be matched across re-dispatches (duplicate
/// replies carry the same id — first one wins, the rest are dropped).
///
/// Decoding is strict: any truncation, trailing garbage, unknown tag,
/// out-of-range count or background whose width is not the query's word
/// width throws WireFormatError, which the transport layers convert into
/// "corrupt peer" (connection closed, range re-dispatched).

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "march/march_test.hpp"
#include "word/word_march.hpp"
#include "word/word_trace.hpp"

namespace mtg::net {

/// Bumped on any incompatible payload change; peers reject mismatches.
inline constexpr std::uint8_t kWireVersion = 2;

/// Thrown by the decoder on any malformed payload.
class WireFormatError : public std::runtime_error {
public:
    explicit WireFormatError(const std::string& what)
        : std::runtime_error(what) {}
};

enum class MessageType : std::uint8_t {
    Query = 1,
    Result = 2,
    Error = 3,
    Ping = 5,
    Pong = 6,
};

/// Verdict shape on the wire. The Engine's four Want values map onto
/// three: DictionarySweep is Traces over pre-placed instances (the
/// placement happens coordinator-side, so the wire never needs to know).
enum class WantTag : std::uint8_t { Detects = 1, DetectsAll = 2, Traces = 3 };

/// One shard query: evaluate `want` for the population slice
/// [range_begin, range_end) shipped in `faults`.
struct WireQuery {
    std::uint64_t id{0};
    WantTag want{WantTag::Detects};
    std::uint64_t range_begin{0};
    std::uint64_t range_end{0};
    march::MarchTest test;
    word::WordRunOptions opts{};
    std::vector<word::Background> backgrounds;
    std::vector<word::InjectedBitFault> faults;
};

/// One shard result, echoing the query's id/want/range.
struct WireResult {
    std::uint64_t id{0};
    WantTag want{WantTag::Detects};
    std::uint64_t range_begin{0};
    std::uint64_t range_end{0};
    std::vector<bool> verdicts;  ///< Detects (packed as 64-bit masks)
    bool all{true};              ///< DetectsAll
    std::vector<word::WordRunTrace> traces;  ///< Traces
};

/// A worker-side failure for query `id`.
struct WireFault {
    std::uint64_t id{0};
    std::string message;
};

/// Heartbeat probe / reply; the nonce matches a Pong to its Ping.
struct WirePing {
    std::uint64_t nonce{0};
};

/// A decoded payload: `type` selects which member is meaningful.
struct Message {
    MessageType type{MessageType::Error};
    WireQuery query;
    WireResult result;
    WireFault error;
    WirePing ping;  ///< Ping and Pong both land here
};

[[nodiscard]] std::vector<std::uint8_t> encode_query(const WireQuery& query);
[[nodiscard]] std::vector<std::uint8_t> encode_result(const WireResult& result);
[[nodiscard]] std::vector<std::uint8_t> encode_error(const WireFault& error);
[[nodiscard]] std::vector<std::uint8_t> encode_ping(const WirePing& ping);
[[nodiscard]] std::vector<std::uint8_t> encode_pong(const WirePing& pong);

/// Decodes one payload. Throws WireFormatError on version mismatch,
/// unknown tags, truncation, trailing bytes or a background whose width
/// is not the query's word width.
[[nodiscard]] Message decode_message(std::span<const std::uint8_t> payload);

}  // namespace mtg::net
