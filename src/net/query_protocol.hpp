#pragma once

/// \file query_protocol.hpp
/// Wire protocol of the persistent query server (query_server.hpp): one
/// JSON object per line, both directions, over any stream socket.
///
/// The worker fleet's binary framing (wire.hpp) is built for bulk
/// shard traffic between trusted peers of the same build. The query
/// server's clients are the opposite: ad-hoc tools, scripts and replay
/// harnesses that want to type a request by hand and read the answer —
/// so the protocol is line-delimited JSON with a deliberately tiny
/// grammar (null / bool / 64-bit int / string / array / object; no
/// floats, no unicode escapes beyond \uXXXX pass-through of ASCII).
///
/// Request (one line):
///   {"id": 7, "op": "detects", "test": "MATS+", "kinds": "SAF,TF"}
///   {"id": 8, "op": "traces", "test": "{^(w0);^(r0,w1);v(r1,w0)}",
///    "universe": "word", "words": 8, "width": 8,
///    "backgrounds": "counting", "kinds": "CFid"}
///
/// Fields: `id` (caller-chosen echo tag), `op` ∈ detects | detects_all |
/// traces | sweep | stats | ping; `test` is a library name or March
/// syntax; `kinds` is a fault family/primitive CSV (parse_fault_kinds);
/// `universe` ∈ bit (default) | word; `n` (bit memory size), `words`,
/// `width`, `backgrounds` ∈ counting (default) | solid, `max_any`
/// (at most march::kMaxAnyExpansion = 16) override the universe
/// defaults; `class` ∈ interactive | bulk
/// overrides the admission class the server would infer from the op.
///
/// Response (one line): {"id": 7, "ok": true, ...} with per-op payload —
/// `all` + `detected` (hex bitmask, bit i = fault i, LSB-first nibbles) +
/// `count` for detects; traces/sweep add `traces` (compact per-fault
/// objects) and sweep adds `instances` (FaultInstance names aligned with
/// traces). Malformed input answers {"id": ..., "ok": false, "error":
/// "..."} and never kills the connection.
///
/// Everything here is deterministic: rendering a Result is a pure
/// function, so a differential harness can compare server output against
/// a locally-evaluated Engine byte for byte.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace mtg::net {

// ---- minimal JSON ---------------------------------------------------------

/// A parsed JSON value. Numbers are 64-bit integers only — the protocol
/// has no real-valued fields, and refusing floats keeps rendering
/// byte-deterministic across platforms.
class Json {
public:
    enum class Kind { Null, Bool, Int, String, Array, Object };

    Json() = default;
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(std::int64_t i) : kind_(Kind::Int), int_(i) {}
    Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
    Json(const char* s) : Json(std::string(s)) {}

    [[nodiscard]] static Json array();
    [[nodiscard]] static Json object();

    [[nodiscard]] Kind kind() const { return kind_; }
    [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }

    /// Typed accessors; throw std::runtime_error on kind mismatch (the
    /// parse_request error path turns that into an "ok": false reply).
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] std::int64_t as_int() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const std::vector<Json>& items() const;

    /// Object field, or nullptr when absent (or not an object).
    [[nodiscard]] const Json* find(const std::string& key) const;

    void push_back(Json value);              ///< array append
    void set(const std::string& key, Json);  ///< object insert/overwrite

    /// Compact canonical dump: no whitespace, object keys in the order
    /// they were set, minimal escapes. parse(dump(x)) == x.
    [[nodiscard]] std::string dump() const;

    /// Strict parse of exactly one JSON value (leading/trailing blanks
    /// allowed). Throws std::runtime_error with a position on error.
    [[nodiscard]] static Json parse(const std::string& text);

private:
    Kind kind_{Kind::Null};
    bool bool_{false};
    std::int64_t int_{0};
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

// ---- requests -------------------------------------------------------------

enum class QueryOp { Detects, DetectsAll, Traces, Sweep, Stats, Ping };

/// Admission class (see query_server.hpp): Interactive requests are
/// answered from a reserved executor lane so a DictionarySweep storm can
/// never starve them.
enum class QueryClass { Interactive, Bulk };

/// One decoded client request.
struct QueryRequest {
    std::int64_t id{0};
    QueryOp op{QueryOp::Ping};
    std::string test;          ///< library name or March syntax
    std::string kinds;         ///< fault CSV (parse_fault_kinds grammar)
    bool word{false};          ///< word universe instead of bit
    int memory_size{0};        ///< bit universe; 0 = RunOptions default
    int words{0};              ///< word universe; 0 = default
    int width{0};              ///< word universe; 0 = default
    std::string backgrounds;   ///< "counting" (default) | "solid"
    int max_any{0};            ///< 0 = universe default
    std::optional<QueryClass> klass;  ///< explicit admission override
};

/// Decodes one request line. Throws std::runtime_error (with a
/// human-readable reason) on anything malformed: bad JSON, wrong types,
/// unknown op, missing test. The `id` of a malformed line is still
/// recovered when possible so the error reply can echo it.
[[nodiscard]] QueryRequest parse_request(const std::string& line);

/// Best-effort id extraction from a malformed line (0 when hopeless).
[[nodiscard]] std::int64_t salvage_request_id(const std::string& line);

/// Renders a request back to its wire line (no trailing newline) — the
/// client side of the protocol, and the replay format.
[[nodiscard]] std::string render_request(const QueryRequest& request);

/// Resolves the request into an executable Engine query: test lookup
/// (library name first, March syntax fallback), kind expansion, universe
/// construction. Throws std::invalid_argument / std::runtime_error on
/// unknown tests, kinds, or invalid dimensions. Stats/Ping requests have
/// no query — calling this on them throws.
[[nodiscard]] engine::Query to_engine_query(const QueryRequest& request);

/// The admission class: the explicit override when present, otherwise
/// Detects / DetectsAll / Stats / Ping are Interactive and Traces /
/// Sweep are Bulk.
[[nodiscard]] QueryClass classify(const QueryRequest& request);

/// Coalescing identity of a request: two requests with equal keys are
/// answered by one backend run. Built from the *resolved* query —
/// canonical test text, universe dimensions, want, canonical kinds — so
/// "MATS+" and its spelled-out March syntax coalesce, as do permuted
/// kind lists. Stats/Ping never coalesce (empty key).
[[nodiscard]] std::string coalesce_key(const QueryRequest& request,
                                       const engine::Query& query);

// ---- responses ------------------------------------------------------------

/// Renders the per-op success reply (no trailing newline). Deterministic:
/// byte-equal across runs and hosts for equal Results.
[[nodiscard]] std::string render_result(std::int64_t id,
                                        const engine::Result& result);

/// {"id": id, "ok": false, "error": message}
[[nodiscard]] std::string render_error(std::int64_t id,
                                       const std::string& message);

/// Hex rendering of a verdict bitmask: bit i of the mask is detected[i];
/// nibble j (hex digit j of the string) holds bits [4j, 4j+4), LSB
/// first. Empty vector -> "".
[[nodiscard]] std::string detected_mask(const std::vector<bool>& detected);

// ---- line transport -------------------------------------------------------

/// Newline-delimited text over a stream socket. Owns the fd. The read
/// side buffers internally, so interleaved lines of any size up to
/// `max_line_bytes` arrive intact; a line beyond the bound poisons the
/// stream (Overflow) — the peer is not speaking the protocol.
///
/// Full-duplex like FrameChannel: one reader thread plus one writer
/// thread is the supported concurrency (the server's session reader vs.
/// executor replies — writes are additionally serialised by the caller).
class LineChannel {
public:
    static constexpr std::size_t kMaxLineBytes = 8u << 20;

    explicit LineChannel(int fd);
    ~LineChannel();
    LineChannel(LineChannel&& other) noexcept;
    LineChannel& operator=(LineChannel&& other) noexcept;
    LineChannel(const LineChannel&) = delete;
    LineChannel& operator=(const LineChannel&) = delete;

    enum class ReadStatus { Ok, Timeout, Closed, Overflow };

    /// Reads one line (without the newline) into `line`. `timeout_ms < 0`
    /// blocks until a line, EOF, or shutdown().
    [[nodiscard]] ReadStatus read_line(std::string& line, int timeout_ms);

    /// Writes `line` plus a newline. False when the connection is dead.
    [[nodiscard]] bool write_line(const std::string& line);

    /// Wakes a blocked read_line()/write_line() from another thread.
    void shutdown();

    [[nodiscard]] int fd() const { return fd_; }
    [[nodiscard]] bool valid() const { return fd_ >= 0; }

private:
    int fd_{-1};
    std::string buffer_;
};

}  // namespace mtg::net
