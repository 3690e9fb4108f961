#include "sim/lane_dispatch.hpp"

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

int resolve_lane_width(bool has_avx2, bool has_avx512f) {
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
    static const int width =
        resolve_lane_width(cpu_has_avx2(), cpu_has_avx512f());
    return width;
}

int clamp_lane_width(int width, std::size_t population) {
    const std::size_t words =
        (population + kChunkLanes - 1) / kChunkLanes;
    if (words <= 3) return 1;
    if (words <= 7 || width < 8) return width < 4 ? 1 : 4;
    return width;
}

}  // namespace mtg::sim
