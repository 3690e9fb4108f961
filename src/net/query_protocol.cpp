#include "net/query_protocol.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "fault/kinds.hpp"
#include "march/expansion.hpp"
#include "march/library.hpp"
#include "march/parser.hpp"
#include "util/contracts.hpp"
#include "word/background.hpp"

namespace mtg::net {

// ---- Json -----------------------------------------------------------------

Json Json::array() {
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json Json::object() {
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

namespace {

[[noreturn]] void type_error(const char* wanted) {
    throw std::runtime_error(std::string("json: expected ") + wanted);
}

}  // namespace

bool Json::as_bool() const {
    if (kind_ != Kind::Bool) type_error("bool");
    return bool_;
}

std::int64_t Json::as_int() const {
    if (kind_ != Kind::Int) type_error("int");
    return int_;
}

const std::string& Json::as_string() const {
    if (kind_ != Kind::String) type_error("string");
    return string_;
}

const std::vector<Json>& Json::items() const {
    if (kind_ != Kind::Array) type_error("array");
    return array_;
}

const Json* Json::find(const std::string& key) const {
    if (kind_ != Kind::Object) return nullptr;
    for (const auto& [name, value] : object_)
        if (name == key) return &value;
    return nullptr;
}

void Json::push_back(Json value) {
    MTG_EXPECTS(kind_ == Kind::Array);
    array_.push_back(std::move(value));
}

void Json::set(const std::string& key, Json value) {
    MTG_EXPECTS(kind_ == Kind::Object);
    for (auto& [name, existing] : object_) {
        if (name == key) {
            existing = std::move(value);
            return;
        }
    }
    object_.emplace_back(key, std::move(value));
}

namespace {

void dump_string(const std::string& s, std::string& out) {
    out += '"';
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    static const char hex[] = "0123456789abcdef";
                    out += "\\u00";
                    out += hex[(c >> 4) & 0xf];
                    out += hex[c & 0xf];
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

}  // namespace

std::string Json::dump() const {
    std::string out;
    switch (kind_) {
        case Kind::Null: out = "null"; break;
        case Kind::Bool: out = bool_ ? "true" : "false"; break;
        case Kind::Int: out = std::to_string(int_); break;
        case Kind::String: dump_string(string_, out); break;
        case Kind::Array: {
            out += '[';
            for (std::size_t i = 0; i < array_.size(); ++i) {
                if (i > 0) out += ',';
                out += array_[i].dump();
            }
            out += ']';
            break;
        }
        case Kind::Object: {
            out += '{';
            for (std::size_t i = 0; i < object_.size(); ++i) {
                if (i > 0) out += ',';
                dump_string(object_[i].first, out);
                out += ':';
                out += object_[i].second.dump();
            }
            out += '}';
            break;
        }
    }
    return out;
}

namespace {

/// Recursive-descent parser over a bounded string. Depth is bounded so a
/// "[[[[..." line cannot blow the stack.
class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    Json parse() {
        Json value = parse_value(0);
        skip_ws();
        if (pos_ != text_.size()) fail("trailing bytes");
        return value;
    }

private:
    static constexpr int kMaxDepth = 32;

    const std::string& text_;
    std::size_t pos_{0};

    [[noreturn]] void fail(const std::string& why) const {
        throw std::runtime_error("json: " + why + " at byte " +
                                 std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\r' || text_[pos_] == '\n'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end");
        return text_[pos_];
    }

    bool consume(const char* literal) {
        const std::size_t len = std::char_traits<char>::length(literal);
        if (text_.compare(pos_, len, literal) != 0) return false;
        pos_ += len;
        return true;
    }

    Json parse_value(int depth) {
        if (depth > kMaxDepth) fail("nesting too deep");
        skip_ws();
        const char c = peek();
        if (c == '{') return parse_object(depth);
        if (c == '[') return parse_array(depth);
        if (c == '"') return Json(parse_string());
        if (c == '-' || (c >= '0' && c <= '9')) return parse_int();
        if (consume("null")) return Json();
        if (consume("true")) return Json(true);
        if (consume("false")) return Json(false);
        fail("unexpected character");
    }

    Json parse_int() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() && std::isdigit(
                   static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E'))
            fail("floats are not part of this protocol");
        try {
            return Json(static_cast<std::int64_t>(
                std::stoll(text_.substr(start, pos_ - start))));
        } catch (const std::exception&) {
            fail("bad integer");
        }
    }

    std::string parse_string() {
        if (peek() != '"') fail("expected string");
        ++pos_;
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("bad \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= h - '0';
                        else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
                        else fail("bad \\u escape");
                    }
                    // ASCII only — the protocol's strings are test syntax
                    // and fault names; reject anything wider rather than
                    // silently mangling it.
                    if (code > 0x7f) fail("non-ascii \\u escape");
                    out += static_cast<char>(code);
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    Json parse_array(int depth) {
        ++pos_;  // '['
        Json out = Json::array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return out;
        }
        for (;;) {
            out.push_back(parse_value(depth + 1));
            skip_ws();
            const char c = peek();
            ++pos_;
            if (c == ']') return out;
            if (c != ',') fail("expected ',' or ']'");
        }
    }

    Json parse_object(int depth) {
        ++pos_;  // '{'
        Json out = Json::object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return out;
        }
        for (;;) {
            skip_ws();
            const std::string key = parse_string();
            skip_ws();
            if (peek() != ':') fail("expected ':'");
            ++pos_;
            out.set(key, parse_value(depth + 1));
            skip_ws();
            const char c = peek();
            ++pos_;
            if (c == '}') return out;
            if (c != ',') fail("expected ',' or '}'");
        }
    }
};

}  // namespace

Json Json::parse(const std::string& text) {
    return JsonParser(text).parse();
}

// ---- requests -------------------------------------------------------------

namespace {

constexpr struct {
    const char* name;
    QueryOp op;
} kOps[] = {
    {"detects", QueryOp::Detects}, {"detects_all", QueryOp::DetectsAll},
    {"traces", QueryOp::Traces},   {"sweep", QueryOp::Sweep},
    {"stats", QueryOp::Stats},     {"ping", QueryOp::Ping},
};

const char* op_name(QueryOp op) {
    for (const auto& entry : kOps)
        if (entry.op == op) return entry.name;
    return "ping";
}

QueryOp parse_op(const std::string& name) {
    for (const auto& entry : kOps)
        if (name == entry.name) return entry.op;
    throw std::runtime_error("unknown op \"" + name + "\"");
}

int int_field(const Json& root, const char* key, int fallback,
              int max = 1'000'000) {
    const Json* field = root.find(key);
    if (field == nullptr) return fallback;
    const std::int64_t value = field->as_int();
    if (value < 0 || value > max)
        throw std::runtime_error(std::string(key) + " out of range");
    return static_cast<int>(value);
}

std::string string_field(const Json& root, const char* key) {
    const Json* field = root.find(key);
    return field == nullptr ? std::string() : field->as_string();
}

}  // namespace

QueryRequest parse_request(const std::string& line) {
    const Json root = Json::parse(line);
    if (root.kind() != Json::Kind::Object)
        throw std::runtime_error("request must be a json object");
    QueryRequest request;
    if (const Json* id = root.find("id")) request.id = id->as_int();
    const Json* op = root.find("op");
    if (op == nullptr) throw std::runtime_error("missing op");
    request.op = parse_op(op->as_string());
    request.test = string_field(root, "test");
    request.kinds = string_field(root, "kinds");
    const std::string universe = string_field(root, "universe");
    if (universe == "word") request.word = true;
    else if (!universe.empty() && universe != "bit")
        throw std::runtime_error("unknown universe \"" + universe + "\"");
    request.memory_size = int_field(root, "n", 0);
    request.words = int_field(root, "words", 0);
    request.width = int_field(root, "width", 0);
    request.backgrounds = string_field(root, "backgrounds");
    request.max_any =
        int_field(root, "max_any", 0, march::kMaxAnyExpansion);
    const std::string klass = string_field(root, "class");
    if (klass == "interactive") request.klass = QueryClass::Interactive;
    else if (klass == "bulk") request.klass = QueryClass::Bulk;
    else if (!klass.empty())
        throw std::runtime_error("unknown class \"" + klass + "\"");
    const bool needs_query =
        request.op != QueryOp::Stats && request.op != QueryOp::Ping;
    if (needs_query && request.test.empty())
        throw std::runtime_error("missing test");
    if (needs_query && request.kinds.empty())
        throw std::runtime_error("missing kinds");
    return request;
}

std::int64_t salvage_request_id(const std::string& line) {
    try {
        const Json root = Json::parse(line);
        if (const Json* id = root.find("id")) return id->as_int();
    } catch (const std::exception&) {
        // Bad JSON has no id worth trusting.
    }
    return 0;
}

std::string render_request(const QueryRequest& request) {
    Json root = Json::object();
    root.set("id", Json(request.id));
    root.set("op", Json(op_name(request.op)));
    if (!request.test.empty()) root.set("test", Json(request.test));
    if (!request.kinds.empty()) root.set("kinds", Json(request.kinds));
    if (request.word) root.set("universe", Json("word"));
    if (request.memory_size > 0)
        root.set("n", Json(std::int64_t{request.memory_size}));
    if (request.words > 0) root.set("words", Json(std::int64_t{request.words}));
    if (request.width > 0) root.set("width", Json(std::int64_t{request.width}));
    if (!request.backgrounds.empty())
        root.set("backgrounds", Json(request.backgrounds));
    if (request.max_any > 0)
        root.set("max_any", Json(std::int64_t{request.max_any}));
    if (request.klass.has_value())
        root.set("class", Json(*request.klass == QueryClass::Interactive
                                   ? "interactive"
                                   : "bulk"));
    return root.dump();
}

engine::Query to_engine_query(const QueryRequest& request) {
    MTG_EXPECTS(request.op != QueryOp::Stats && request.op != QueryOp::Ping);
    engine::Query query;
    try {
        query.test = march::find_march_test(request.test).test;
    } catch (const std::invalid_argument&) {
        query.test = march::parse_march(request.test);
    }
    query.kinds = fault::parse_fault_kinds(request.kinds);
    switch (request.op) {
        case QueryOp::Detects: query.want = engine::Want::Detects; break;
        case QueryOp::DetectsAll: query.want = engine::Want::DetectsAll; break;
        case QueryOp::Traces: query.want = engine::Want::Traces; break;
        case QueryOp::Sweep: query.want = engine::Want::DictionarySweep; break;
        case QueryOp::Stats:
        case QueryOp::Ping: break;  // unreachable: guarded above
    }
    if (request.word) {
        word::WordRunOptions opts;
        if (request.words > 0) opts.words = request.words;
        if (request.width > 0) opts.width = request.width;
        if (request.max_any > 0) opts.max_any_expansion = request.max_any;
        std::vector<word::Background> backgrounds;
        if (request.backgrounds.empty() || request.backgrounds == "counting")
            backgrounds = word::counting_backgrounds(opts.width);
        else if (request.backgrounds == "solid")
            backgrounds = word::solid_background(opts.width);
        else
            throw std::runtime_error("unknown backgrounds \"" +
                                     request.backgrounds + "\"");
        query.universe =
            engine::WordUniverse{std::move(backgrounds), opts};
    } else {
        sim::RunOptions opts;
        if (request.memory_size > 0) opts.memory_size = request.memory_size;
        if (request.max_any > 0) opts.max_any_expansion = request.max_any;
        query.universe = engine::BitUniverse{opts};
    }
    return query;
}

QueryClass classify(const QueryRequest& request) {
    if (request.klass.has_value()) return *request.klass;
    switch (request.op) {
        case QueryOp::Traces:
        case QueryOp::Sweep: return QueryClass::Bulk;
        case QueryOp::Detects:
        case QueryOp::DetectsAll:
        case QueryOp::Stats:
        case QueryOp::Ping: break;
    }
    return QueryClass::Interactive;
}

std::string coalesce_key(const QueryRequest& request,
                         const engine::Query& query) {
    if (request.op == QueryOp::Stats || request.op == QueryOp::Ping)
        return {};
    // Canonical pieces only: the rendered (parsed) test, the resolved
    // universe dimensions, and the canonical kind list — so every spelling
    // that resolves to the same work shares one key.
    std::string key = query.test.str();
    key += '|';
    key += std::to_string(static_cast<int>(query.want));
    key += '|';
    if (const auto* bit = std::get_if<engine::BitUniverse>(&query.universe)) {
        key += "bit:";
        key += std::to_string(bit->opts.memory_size);
        key += ':';
        key += std::to_string(bit->opts.max_any_expansion);
    } else {
        const auto& word = std::get<engine::WordUniverse>(query.universe);
        key += "word:";
        key += std::to_string(word.opts.words);
        key += ':';
        key += std::to_string(word.opts.width);
        key += ':';
        key += std::to_string(word.opts.max_any_expansion);
        key += ':';
        key += std::to_string(word.backgrounds.size());
    }
    for (fault::FaultKind kind : engine::canonical_kinds(query.kinds)) {
        key += '|';
        key += fault::fault_kind_name(kind);
    }
    return key;
}

// ---- responses ------------------------------------------------------------

std::string detected_mask(const std::vector<bool>& detected) {
    static const char hex[] = "0123456789abcdef";
    std::string mask((detected.size() + 3) / 4, '0');
    for (std::size_t i = 0; i < detected.size(); ++i) {
        if (!detected[i]) continue;
        mask[i / 4] = hex[(mask[i / 4] >= 'a' ? mask[i / 4] - 'a' + 10
                                              : mask[i / 4] - '0') |
                          (1 << (i % 4))];
    }
    return mask;
}

namespace {

std::string site_str(const sim::ReadSite& site) {
    return std::to_string(site.element) + "." + std::to_string(site.op);
}

std::string hex_u64(std::uint64_t value) {
    static const char hex[] = "0123456789abcdef";
    if (value == 0) return "0";
    std::string out;
    while (value != 0) {
        out.insert(out.begin(), hex[value & 0xf]);
        value >>= 4;
    }
    return out;
}

Json render_bit_trace(const sim::RunTrace& trace) {
    Json out = Json::object();
    out.set("d", Json(trace.detected));
    Json reads = Json::array();
    for (const sim::ReadSite& site : trace.failing_reads)
        reads.push_back(Json(site_str(site)));
    out.set("r", std::move(reads));
    Json observations = Json::array();
    for (const sim::Observation& obs : trace.failing_observations)
        observations.push_back(
            Json(site_str(obs.site) + "@" + std::to_string(obs.cell)));
    out.set("o", std::move(observations));
    return out;
}

Json render_word_trace(const word::WordRunTrace& trace) {
    Json out = Json::object();
    out.set("d", Json(trace.detected));
    Json reads = Json::array();
    for (const word::WordReadSite& site : trace.failing_reads)
        reads.push_back(
            Json(std::to_string(site.background) + ":" + site_str(site.site)));
    out.set("r", std::move(reads));
    Json observations = Json::array();
    for (const word::WordObservation& obs : trace.failing_observations)
        observations.push_back(Json(
            std::to_string(obs.background) + ":" + site_str(obs.site) + "@" +
            std::to_string(obs.word) + "#" + hex_u64(obs.bits)));
    out.set("o", std::move(observations));
    return out;
}

}  // namespace

std::string render_result(std::int64_t id, const engine::Result& result) {
    Json root = Json::object();
    root.set("id", Json(id));
    root.set("ok", Json(true));
    root.set("all", Json(result.all));
    if (result.want != engine::Want::DetectsAll) {
        root.set("detected", Json(detected_mask(result.detected)));
        std::int64_t count = 0;
        for (bool d : result.detected) count += d;
        root.set("count", Json(count));
    }
    if (result.want == engine::Want::Traces ||
        result.want == engine::Want::DictionarySweep) {
        Json traces = Json::array();
        for (const sim::RunTrace& trace : result.traces)
            traces.push_back(render_bit_trace(trace));
        for (const word::WordRunTrace& trace : result.word_traces)
            traces.push_back(render_word_trace(trace));
        root.set("traces", std::move(traces));
    }
    if (result.want == engine::Want::DictionarySweep) {
        Json instances = Json::array();
        for (const fault::FaultInstance& instance : result.instances)
            instances.push_back(Json(instance.name()));
        root.set("instances", std::move(instances));
    }
    return root.dump();
}

std::string render_error(std::int64_t id, const std::string& message) {
    Json root = Json::object();
    root.set("id", Json(id));
    root.set("ok", Json(false));
    root.set("error", Json(message));
    return root.dump();
}

// ---- LineChannel ----------------------------------------------------------

LineChannel::LineChannel(int fd) : fd_(fd) {}

LineChannel::~LineChannel() {
    if (fd_ >= 0) ::close(fd_);
}

LineChannel::LineChannel(LineChannel&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

LineChannel& LineChannel::operator=(LineChannel&& other) noexcept {
    if (this != &other) {
        if (fd_ >= 0) ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
        buffer_ = std::move(other.buffer_);
    }
    return *this;
}

LineChannel::ReadStatus LineChannel::read_line(std::string& line,
                                               int timeout_ms) {
    using clock = std::chrono::steady_clock;
    const bool has_deadline = timeout_ms >= 0;
    const auto deadline =
        clock::now() + std::chrono::milliseconds(has_deadline ? timeout_ms : 0);
    for (;;) {
        const std::size_t newline = buffer_.find('\n');
        if (newline != std::string::npos) {
            line.assign(buffer_, 0, newline);
            buffer_.erase(0, newline + 1);
            return ReadStatus::Ok;
        }
        if (buffer_.size() > kMaxLineBytes) return ReadStatus::Overflow;
        if (fd_ < 0) return ReadStatus::Closed;
        int wait = -1;
        if (has_deadline) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - clock::now())
                    .count();
            wait = left < 0 ? 0 : static_cast<int>(left);
        }
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, wait);
        if (ready < 0) {
            if (errno == EINTR) continue;
            return ReadStatus::Closed;
        }
        if (ready == 0) return ReadStatus::Timeout;
        char chunk[4096];
        const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (got < 0) {
            if (errno == EINTR) continue;
            return ReadStatus::Closed;
        }
        if (got == 0) return ReadStatus::Closed;
        buffer_.append(chunk, static_cast<std::size_t>(got));
    }
}

bool LineChannel::write_line(const std::string& line) {
    if (fd_ < 0) return false;
    std::string framed = line;
    framed += '\n';
    const char* data = framed.data();
    std::size_t left = framed.size();
    while (left > 0) {
        const ssize_t wrote = ::send(fd_, data, left, MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        data += wrote;
        left -= static_cast<std::size_t>(wrote);
    }
    return true;
}

void LineChannel::shutdown() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace mtg::net
