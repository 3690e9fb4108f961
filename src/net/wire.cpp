#include "net/wire.hpp"

#include <limits>

namespace mtg::net {

namespace {

// --------------------------------------------------------------- writer ----

class Writer {
public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }

    void count(std::size_t n) {
        if (n > std::numeric_limits<std::uint32_t>::max())
            throw WireFormatError("count overflows u32");
        u32(static_cast<std::uint32_t>(n));
    }

    std::vector<std::uint8_t> take() { return std::move(bytes_); }

private:
    std::vector<std::uint8_t> bytes_;
};

// --------------------------------------------------------------- reader ----

class Reader {
public:
    explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

    std::uint8_t u8() {
        need(1);
        return bytes_[pos_++];
    }
    std::uint32_t u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
        return v;
    }
    std::uint64_t u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
        return v;
    }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

    /// An element count, sanity-bounded by the bytes actually left: every
    /// encoded element below costs at least one byte, so a count larger
    /// than the remainder is garbage, not a huge allocation.
    std::size_t count() {
        const std::uint32_t n = u32();
        if (n > remaining()) throw WireFormatError("count exceeds payload");
        return n;
    }

    [[nodiscard]] std::size_t remaining() const {
        return bytes_.size() - pos_;
    }

    void expect_end() const {
        if (pos_ != bytes_.size())
            throw WireFormatError("trailing bytes after message");
    }

private:
    std::span<const std::uint8_t> bytes_;
    std::size_t pos_{0};

    void need(std::size_t n) const {
        if (bytes_.size() - pos_ < n)
            throw WireFormatError("truncated message");
    }
};

// ---------------------------------------------------- component codecs ----

void put_test(Writer& w, const march::MarchTest& test) {
    w.count(test.size());
    for (const march::MarchElement& element : test.elements()) {
        w.u8(static_cast<std::uint8_t>(element.order));
        w.count(element.ops.size());
        for (const march::MarchOp& op : element.ops) {
            w.u8(static_cast<std::uint8_t>(op.kind));
            w.u8(op.value);
        }
    }
}

march::MarchTest get_test(Reader& r) {
    std::vector<march::MarchElement> elements;
    const std::size_t element_count = r.count();
    elements.reserve(element_count);
    for (std::size_t e = 0; e < element_count; ++e) {
        const std::uint8_t order = r.u8();
        if (order > static_cast<std::uint8_t>(march::AddressOrder::Any))
            throw WireFormatError("bad address order");
        std::vector<march::MarchOp> ops;
        const std::size_t op_count = r.count();
        if (op_count == 0) throw WireFormatError("empty march element");
        ops.reserve(op_count);
        for (std::size_t o = 0; o < op_count; ++o) {
            const std::uint8_t kind = r.u8();
            if (kind > static_cast<std::uint8_t>(march::OpKind::Wait))
                throw WireFormatError("bad op kind");
            const std::uint8_t value = r.u8();
            if (value > 1) throw WireFormatError("bad op value");
            ops.push_back({static_cast<march::OpKind>(kind), value});
        }
        elements.emplace_back(static_cast<march::AddressOrder>(order),
                              std::move(ops));
    }
    return march::MarchTest(std::move(elements));
}

fault::FaultKind get_fault_kind(Reader& r) {
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(fault::FaultKind::AfMap))
        throw WireFormatError("bad fault kind");
    return static_cast<fault::FaultKind>(kind);
}

void put_faults(Writer& w, std::span<const word::InjectedBitFault> faults) {
    w.count(faults.size());
    for (const word::InjectedBitFault& fault : faults) {
        w.u8(static_cast<std::uint8_t>(fault.kind));
        w.i32(fault.a.word);
        w.i32(fault.a.bit);
        w.i32(fault.b.word);
        w.i32(fault.b.bit);
    }
}

std::vector<word::InjectedBitFault> get_faults(Reader& r) {
    std::vector<word::InjectedBitFault> faults;
    const std::size_t n = r.count();
    faults.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        word::InjectedBitFault fault;
        fault.kind = get_fault_kind(r);
        fault.a.word = r.i32();
        fault.a.bit = r.i32();
        fault.b.word = r.i32();
        fault.b.bit = r.i32();
        faults.push_back(fault);
    }
    return faults;
}

void put_verdicts(Writer& w, const std::vector<bool>& verdicts) {
    // Packed into 64-bit masks, LSB-first — the per-chunk lane-mask
    // currency of the reduction protocol.
    w.count(verdicts.size());
    std::uint64_t mask = 0;
    int filled = 0;
    for (const bool v : verdicts) {
        if (v) mask |= std::uint64_t{1} << filled;
        if (++filled == 64) {
            w.u64(mask);
            mask = 0;
            filled = 0;
        }
    }
    if (filled != 0) w.u64(mask);
}

std::vector<bool> get_verdicts(Reader& r) {
    const std::size_t n = r.u32();
    if ((n + 63) / 64 * 8 > r.remaining())
        throw WireFormatError("verdict mask exceeds payload");
    std::vector<bool> verdicts;
    verdicts.reserve(n);
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 64 == 0) mask = r.u64();
        verdicts.push_back((mask >> (i % 64)) & 1);
    }
    return verdicts;
}

void put_read_site(Writer& w, const sim::ReadSite& site) {
    w.i32(site.element);
    w.i32(site.op);
}

sim::ReadSite get_read_site(Reader& r) {
    sim::ReadSite site;
    site.element = r.i32();
    site.op = r.i32();
    return site;
}

void put_traces(Writer& w, const std::vector<word::WordRunTrace>& traces) {
    w.count(traces.size());
    for (const word::WordRunTrace& trace : traces) {
        w.u8(trace.detected ? 1 : 0);
        w.count(trace.failing_reads.size());
        for (const word::WordReadSite& read : trace.failing_reads) {
            w.i32(read.background);
            put_read_site(w, read.site);
        }
        w.count(trace.failing_observations.size());
        for (const word::WordObservation& obs : trace.failing_observations) {
            w.i32(obs.background);
            put_read_site(w, obs.site);
            w.i32(obs.word);
            w.u64(obs.bits);
        }
    }
}

std::vector<word::WordRunTrace> get_traces(Reader& r) {
    std::vector<word::WordRunTrace> traces;
    const std::size_t n = r.count();
    traces.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        word::WordRunTrace trace;
        trace.detected = r.u8() != 0;
        const std::size_t reads = r.count();
        trace.failing_reads.reserve(reads);
        for (std::size_t j = 0; j < reads; ++j) {
            word::WordReadSite read;
            read.background = r.i32();
            read.site = get_read_site(r);
            trace.failing_reads.push_back(read);
        }
        const std::size_t observations = r.count();
        trace.failing_observations.reserve(observations);
        for (std::size_t j = 0; j < observations; ++j) {
            word::WordObservation obs;
            obs.background = r.i32();
            obs.site = get_read_site(r);
            obs.word = r.i32();
            obs.bits = r.u64();
            trace.failing_observations.push_back(obs);
        }
        traces.push_back(std::move(trace));
    }
    return traces;
}

WantTag get_want(Reader& r) {
    const std::uint8_t tag = r.u8();
    if (tag < static_cast<std::uint8_t>(WantTag::Detects) ||
        tag > static_cast<std::uint8_t>(WantTag::Traces))
        throw WireFormatError("bad want tag");
    return static_cast<WantTag>(tag);
}

void put_header(Writer& w, MessageType type) {
    w.u8(kWireVersion);
    w.u8(static_cast<std::uint8_t>(type));
}

}  // namespace

// ------------------------------------------------------------- messages ----

std::vector<std::uint8_t> encode_query(const WireQuery& query) {
    Writer w;
    put_header(w, MessageType::Query);
    w.u64(query.id);
    w.u8(static_cast<std::uint8_t>(query.want));
    w.u64(query.range_begin);
    w.u64(query.range_end);
    put_test(w, query.test);
    w.i32(query.opts.words);
    w.i32(query.opts.width);
    w.i32(query.opts.max_any_expansion);
    w.count(query.backgrounds.size());
    for (const word::Background& background : query.backgrounds) {
        w.i32(background.width);
        w.u64(background.bits);
    }
    put_faults(w, query.faults);
    return w.take();
}

std::vector<std::uint8_t> encode_result(const WireResult& result) {
    Writer w;
    put_header(w, MessageType::Result);
    w.u64(result.id);
    w.u8(static_cast<std::uint8_t>(result.want));
    w.u64(result.range_begin);
    w.u64(result.range_end);
    switch (result.want) {
        case WantTag::Detects: put_verdicts(w, result.verdicts); break;
        case WantTag::DetectsAll: w.u8(result.all ? 1 : 0); break;
        case WantTag::Traces: put_traces(w, result.traces); break;
    }
    return w.take();
}

std::vector<std::uint8_t> encode_error(const WireFault& error) {
    Writer w;
    put_header(w, MessageType::Error);
    w.u64(error.id);
    w.count(error.message.size());
    for (const char c : error.message)
        w.u8(static_cast<std::uint8_t>(c));
    return w.take();
}

std::vector<std::uint8_t> encode_ping(const WirePing& ping) {
    Writer w;
    put_header(w, MessageType::Ping);
    w.u64(ping.nonce);
    return w.take();
}

std::vector<std::uint8_t> encode_pong(const WirePing& pong) {
    Writer w;
    put_header(w, MessageType::Pong);
    w.u64(pong.nonce);
    return w.take();
}

Message decode_message(std::span<const std::uint8_t> payload) {
    Reader r(payload);
    const std::uint8_t version = r.u8();
    if (version != kWireVersion)
        throw WireFormatError("wire version mismatch: got " +
                              std::to_string(version) + ", expected " +
                              std::to_string(kWireVersion));
    const std::uint8_t type = r.u8();
    Message message;
    switch (type) {
        case static_cast<std::uint8_t>(MessageType::Query): {
            message.type = MessageType::Query;
            WireQuery& q = message.query;
            q.id = r.u64();
            q.want = get_want(r);
            q.range_begin = r.u64();
            q.range_end = r.u64();
            q.test = get_test(r);
            q.opts.words = r.i32();
            q.opts.width = r.i32();
            q.opts.max_any_expansion = r.i32();
            const std::size_t backgrounds = r.count();
            q.backgrounds.reserve(backgrounds);
            for (std::size_t i = 0; i < backgrounds; ++i) {
                word::Background background;
                background.width = r.i32();
                background.bits = r.u64();
                // A background is applied at the word width; a wider one
                // would also overflow Background::complement's shift.
                if (background.width != q.opts.width)
                    throw WireFormatError("background width " +
                                          std::to_string(background.width) +
                                          " is not the word width " +
                                          std::to_string(q.opts.width));
                q.backgrounds.push_back(background);
            }
            q.faults = get_faults(r);
            if (q.range_end - q.range_begin != q.faults.size())
                throw WireFormatError("range/population size mismatch");
            break;
        }
        case static_cast<std::uint8_t>(MessageType::Result): {
            message.type = MessageType::Result;
            WireResult& res = message.result;
            res.id = r.u64();
            res.want = get_want(r);
            res.range_begin = r.u64();
            res.range_end = r.u64();
            switch (res.want) {
                case WantTag::Detects:
                    res.verdicts = get_verdicts(r);
                    break;
                case WantTag::DetectsAll: res.all = r.u8() != 0; break;
                case WantTag::Traces: res.traces = get_traces(r); break;
            }
            break;
        }
        case static_cast<std::uint8_t>(MessageType::Error): {
            message.type = MessageType::Error;
            message.error.id = r.u64();
            const std::size_t length = r.count();
            message.error.message.reserve(length);
            for (std::size_t i = 0; i < length; ++i)
                message.error.message.push_back(static_cast<char>(r.u8()));
            break;
        }
        case static_cast<std::uint8_t>(MessageType::Ping): {
            message.type = MessageType::Ping;
            message.ping.nonce = r.u64();
            break;
        }
        case static_cast<std::uint8_t>(MessageType::Pong): {
            message.type = MessageType::Pong;
            message.ping.nonce = r.u64();
            break;
        }
        default: throw WireFormatError("bad message type");
    }
    r.expect_end();
    return message;
}

}  // namespace mtg::net
