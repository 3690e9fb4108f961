#pragma once

/// \file trace.hpp
/// In-memory span recorder of the traced run. The benchmark records spans
/// only around its own calls into the library's public functions; a span
/// carries a name, start, end, parent span and request id, and counters
/// are attached to the request they were read for. Everything stays in
/// memory until the run ends and is written once (trace_report.py reads
/// the file).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
public:
    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    /// Spans are recorded only while enabled (the traced run alternates
    /// traced and untraced requests to measure its own overhead).
    void enable(bool on) { on_ = on; }
    [[nodiscard]] bool on() const { return on_; }

    /// Opens a span now; returns its id (-1 when disabled).
    std::int64_t open(const char* name, std::int64_t parent,
                      std::int64_t request) {
        return open_at(name, parent, request, Clock::now());
    }
    std::int64_t open_at(const char* name, std::int64_t parent,
                         std::int64_t request, Clock::time_point start) {
        if (!on_) return -1;
        spans_.push_back({name, us(start), -1.0, parent, request});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }
    void close(std::int64_t id) { close_at(id, Clock::now()); }
    void close_at(std::int64_t id, Clock::time_point end) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = us(end);
    }

    /// A whole span whose bounds the caller already measured.
    void record(const char* name, std::int64_t parent, std::int64_t request,
                Clock::time_point start, Clock::time_point end) {
        if (!on_) return;
        spans_.push_back({name, us(start), us(end), parent, request});
    }

    /// Runs `body` inside a span and returns its result.
    template <typename Body>
    auto scoped(const char* name, std::int64_t parent, std::int64_t request,
                Body&& body) {
        struct Closer {
            Tracer& tracer;
            std::int64_t id;
            ~Closer() { tracer.close(id); }
        } closer{*this, open(name, parent, request)};
        return body();
    }

    /// A counter value read for `request` (a delta over that request).
    void count(std::int64_t request, const char* name, double value) {
        if (on_) counts_.push_back({name, request, value});
    }

    /// Writes {"spans": [...], "counts": [...]} to `path`. Returns false
    /// when the file cannot be written.
    [[nodiscard]] bool write(const std::string& path) const {
        std::FILE* file = std::fopen(path.c_str(), "w");
        if (file == nullptr) return false;
        std::fprintf(file, "{\"spans\":[");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(file,
                         "%s\n{\"id\":%zu,\"name\":\"%s\",\"t0\":%.3f,"
                         "\"t1\":%.3f,\"parent\":%lld,\"req\":%lld}",
                         i ? "," : "", i, s.name, s.start_us, s.end_us,
                         static_cast<long long>(s.parent),
                         static_cast<long long>(s.request));
        }
        std::fprintf(file, "],\n\"counts\":[");
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            const Count& c = counts_[i];
            std::fprintf(file,
                         "%s\n{\"name\":\"%s\",\"req\":%lld,"
                         "\"value\":%.17g}",
                         i ? "," : "", c.name,
                         static_cast<long long>(c.request), c.value);
        }
        std::fprintf(file, "]}\n");
        return std::fclose(file) == 0;
    }

private:
    struct Span {
        const char* name;
        double start_us;
        double end_us;
        std::int64_t parent;
        std::int64_t request;
    };
    struct Count {
        const char* name;
        std::int64_t request;
        double value;
    };

    [[nodiscard]] double us(Clock::time_point t) const {
        return std::chrono::duration<double, std::micro>(t - epoch_).count();
    }

    Clock::time_point epoch_;
    bool on_{false};
    std::vector<Span> spans_;
    std::vector<Count> counts_;
};

}  // namespace perfbench
