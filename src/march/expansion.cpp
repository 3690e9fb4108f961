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
    std::vector<unsigned> choices;
    expansion_choices(test, max_any_expansion, choices);
    return choices;
}

void expansion_choices(const MarchTest& test, int max_any_expansion,
                       std::vector<unsigned>& out) {
    MTG_EXPECTS(max_any_expansion <= kMaxAnyExpansion);
    out.clear();
    const int k = any_order_count(test);
    if (k <= max_any_expansion) {
        out.reserve(std::size_t{1} << k);
        for (unsigned c = 0; c < (1u << k); ++c) out.push_back(c);
    } else {
        out.assign({0u, ~0u});
    }
}

}  // namespace mtg::march
