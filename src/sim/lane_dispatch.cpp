#include "sim/lane_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "sim/lane_block.hpp"

namespace mtg::sim {

namespace {
std::atomic<bool> g_dense_trace_grids{false};
std::atomic<int> g_requested_isa{-1};  // -1: resolve MTG_LANE_ISA lazily
}  // namespace

bool dense_trace_grids() {
    return g_dense_trace_grids.load(std::memory_order_relaxed);
}

void set_dense_trace_grids(bool enabled) {
    g_dense_trace_grids.store(enabled, std::memory_order_relaxed);
}

LaneIsa parse_lane_isa(const char* value) {
    if (value == nullptr) return LaneIsa::Auto;
    if (std::strcmp(value, "avx512") == 0) return LaneIsa::Avx512;
    if (std::strcmp(value, "avx2") == 0) return LaneIsa::Avx2;
    if (std::strcmp(value, "generic") == 0) return LaneIsa::Generic;
    return LaneIsa::Auto;
}

LaneIsa resolve_lane_isa(LaneIsa requested, std::size_t work_items,
                         bool has_avx2, bool has_avx512f) {
    // Forced ISAs degrade down the feature ladder rather than crash: a
    // forced avx512 on an AVX2-only host runs the clone, a forced avx2 on
    // a pre-AVX2 host runs the generic instantiation.
    if (requested == LaneIsa::Generic) return LaneIsa::Generic;
    if (requested == LaneIsa::Avx512)
        return has_avx512f ? LaneIsa::Avx512
                           : (has_avx2 ? LaneIsa::Avx2 : LaneIsa::Generic);
    if (requested == LaneIsa::Avx2)
        return has_avx2 ? LaneIsa::Avx2 : LaneIsa::Generic;
    // Auto: zmm only when the job is long enough to amortise the AVX-512
    // frequency-license ramp; short bursts run the 256-bit clone.
    if (has_avx512f && work_items >= kZmmWorkItemThreshold)
        return LaneIsa::Avx512;
    if (has_avx2) return LaneIsa::Avx2;
    if (has_avx512f) return LaneIsa::Avx512;
    return LaneIsa::Generic;
}

LaneIsa requested_lane_isa() {
    int isa = g_requested_isa.load(std::memory_order_relaxed);
    if (isa < 0) {
        isa = static_cast<int>(parse_lane_isa(std::getenv("MTG_LANE_ISA")));
        g_requested_isa.store(isa, std::memory_order_relaxed);
    }
    return static_cast<LaneIsa>(isa);
}

void set_requested_lane_isa(LaneIsa isa) {
    g_requested_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

LaneIsa active_lane_isa(std::size_t work_items) {
    return resolve_lane_isa(requested_lane_isa(), work_items,
                            cpu_has_avx2(), cpu_has_avx512f());
}

bool lane_width_supported(int width) {
    return width == 1 || width == 4 || width == 8;
}

int parse_lane_width(const char* value) {
    if (value == nullptr || *value == '\0') return 0;
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0') return 0;
    return lane_width_supported(static_cast<int>(parsed))
               ? static_cast<int>(parsed)
               : 0;
}

int resolve_lane_width(const char* override_value, bool has_avx2,
                       bool has_avx512f) {
    const int forced = parse_lane_width(override_value);
    if (forced != 0) return forced;
    if (has_avx512f) return 8;
    if (has_avx2) return 4;
    return 1;
}

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

bool cpu_has_avx512f() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx512f") != 0;
#else
    return false;
#endif
}

int active_lane_width() {
    static const int width = resolve_lane_width(
        std::getenv("MTG_LANE_WIDTH"), cpu_has_avx2(), cpu_has_avx512f());
    return width;
}

bool lane_width_forced() {
    static const bool forced =
        parse_lane_width(std::getenv("MTG_LANE_WIDTH")) != 0;
    return forced;
}

int clamp_lane_width(int width, std::size_t population) {
    const std::size_t words =
        (population + kChunkLanes - 1) / kChunkLanes;
    if (words <= 3) return 1;
    if (words <= 7 || width < 8) return width < 4 ? 1 : 4;
    return width;
}

}  // namespace mtg::sim
