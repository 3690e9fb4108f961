#include "baseline/exhaustive.hpp"

#include <chrono>

#include "engine/engine.hpp"
#include "util/contracts.hpp"
#include "util/trit.hpp"

namespace mtg::baseline {

using march::AddressOrder;
using march::MarchElement;
using march::MarchOp;
using march::MarchTest;
using march::OpKind;

namespace {

/// Depth-first enumerator over March tests of a fixed complexity.
///
/// State kept incrementally:
///  - `elements`: finished elements;
///  - `current`: ops of the open element;
///  - `background`: uniform cell value before the open element;
///  - `running`: per-cell value inside the open element (background until
///    the first write, then the value of the latest write).
/// A read is only enumerated with the value the good machine would return
/// (`running`), which is exactly the transition-tree consistency pruning —
/// any other expected value gives an ill-formed test.
class Enumerator {
public:
    Enumerator(int complexity, const std::vector<fault::FaultKind>* kinds,
               const sim::RunOptions& run, long long max_nodes)
        : target_(complexity), kinds_(kinds), run_(run), max_nodes_(max_nodes) {}

    /// Runs the enumeration; returns the first covering test in
    /// enumeration order (tests of equal complexity are equivalent for the
    /// optimality argument).
    std::optional<MarchTest> run() {
        dfs(0, Trit::X, Trit::X);
        return found_;
    }

    [[nodiscard]] long long nodes() const { return nodes_; }
    [[nodiscard]] long long candidates() const { return candidates_; }
    [[nodiscard]] bool budget_exhausted() const { return out_of_budget_; }

private:
    const int target_;
    const std::vector<fault::FaultKind>* kinds_;  // null => count only
    const sim::RunOptions run_;
    const long long max_nodes_;

    std::vector<MarchElement> elements_;
    std::vector<MarchOp> current_;
    std::optional<MarchTest> found_;
    long long nodes_ = 0;
    long long candidates_ = 0;
    bool out_of_budget_ = false;

    void complete_candidate() {
        ++candidates_;
        if (!kinds_) return;
        MarchTest test(elements_);
        // march::is_well_formed is the scalar check for any memory of at
        // least one cell; an empty memory reads nothing.
        if ((run_.memory_size <= 0 || march::is_well_formed(test)) &&
            engine::Engine::global().covers_all(test, *kinds_, run_))
            found_ = test;
    }

    /// Closes the open element under each address order and recurses /
    /// completes.
    template <typename Next>
    void close_current(Next&& next) {
        if (current_.empty()) {
            next();
            return;
        }
        for (AddressOrder order : {AddressOrder::Any, AddressOrder::Ascending,
                                   AddressOrder::Descending}) {
            elements_.emplace_back(order, current_);
            std::vector<MarchOp> saved;
            saved.swap(current_);
            next();
            current_.swap(saved);
            elements_.pop_back();
            if (found_ || out_of_budget_) return;
        }
    }

    void dfs(int used, Trit background, Trit running) {
        if (found_ || out_of_budget_) return;
        if (++nodes_ > max_nodes_) {
            out_of_budget_ = true;
            return;
        }
        if (used == target_) {
            close_current([&] { complete_candidate(); });
            return;
        }

        // Extend the open element with a write.
        for (int d = 0; d < 2; ++d) {
            // Skip writes that repeat the running value twice in a row —
            // such a test is never shorter than one without the duplicate.
            if (!current_.empty() && current_.back() == MarchOp::w(d)) continue;
            current_.push_back(MarchOp::w(d));
            dfs(used + 1, background, trit_from_bit(d));
            current_.pop_back();
            if (found_ || out_of_budget_) return;
        }

        // Extend with the (single) well-formed read.
        if (is_known(running)) {
            const MarchOp read = MarchOp::r(trit_bit(running));
            if (current_.empty() || !(current_.back() == read)) {
                current_.push_back(read);
                dfs(used + 1, background, running);
                current_.pop_back();
                if (found_ || out_of_budget_) return;
            }
        }

        // Close the element and start a new one (only when non-empty).
        if (!current_.empty()) {
            const Trit new_background = running;
            close_current([&] {
                dfs(used, new_background, new_background);
            });
        }
    }
};

}  // namespace

ExhaustiveResult exhaustive_search(const std::vector<fault::FaultKind>& kinds,
                                   const ExhaustiveOptions& options) {
    MTG_EXPECTS(!kinds.empty());
    const auto t0 = std::chrono::steady_clock::now();
    ExhaustiveResult result;
    for (int complexity = 1; complexity <= options.max_complexity;
         ++complexity) {
        Enumerator enumerator(complexity, &kinds, options.sim,
                              options.max_nodes - result.nodes_explored);
        auto test = enumerator.run();
        result.nodes_explored += enumerator.nodes();
        result.candidates_checked += enumerator.candidates();
        if (enumerator.budget_exhausted()) {
            result.budget_exhausted = true;
            break;
        }
        if (test) {
            result.test = std::move(test);
            break;
        }
    }
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
}

long long count_candidates(int complexity, long long max_nodes) {
    Enumerator enumerator(complexity, nullptr, sim::RunOptions{}, max_nodes);
    (void)enumerator.run();
    return enumerator.candidates();
}

}  // namespace mtg::baseline
