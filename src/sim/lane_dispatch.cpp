#include "sim/lane_dispatch.hpp"

#include <cstdlib>

#include "sim/lane_block.hpp"

namespace mtg::sim {

LaneIsa active_lane_isa(std::size_t work_items) {
    return work_items >= kZmmWorkItemThreshold && cpu_has_avx512f()
               ? LaneIsa::Avx512
               : LaneIsa::Generic;
}

bool lane_width_supported(int width) {
    return width == 1 || width == 4 || width == 8;
}

int parse_lane_width(const char* value) {
    if (value == nullptr || *value == '\0') return 0;
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0') return 0;
    // Range-check the long before narrowing it: 4294967300 is not 4.
    if (parsed < 1 || parsed > 8) return 0;
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
