#include "march/expansion.hpp"

#include "util/contracts.hpp"

namespace mtg::march {

int any_order_count(const MarchTest& test) {
    int k = 0;
    for (const auto& e : test.elements())
        if (e.order == AddressOrder::Any) ++k;
    return k;
}

std::vector<unsigned> expansion_choices(const MarchTest& test,
                                        int max_any_expansion) {
    MTG_EXPECTS(max_any_expansion <= kMaxAnyExpansion);
    const int k = any_order_count(test);
    if (k <= max_any_expansion) {
        std::vector<unsigned> all;
        all.reserve(std::size_t{1} << k);
        for (unsigned c = 0; c < (1u << k); ++c) all.push_back(c);
        return all;
    }
    return {0u, ~0u};
}

}  // namespace mtg::march
