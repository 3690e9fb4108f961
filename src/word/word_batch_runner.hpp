#pragma once

/// \file word_batch_runner.hpp
/// Evaluates one word-oriented March test (bit test × background set)
/// against a whole bit-fault population per pass.
///
/// The runner packs up to 63·W bit-fault instances into the lanes of one
/// PackedWordMemoryT lane block (bit 0 of every plane word stays
/// fault-free as the reference) and streams the background set through
/// them: one pass executes the test once per background on the SAME packed
/// memory, exactly like the scalar word runner, so background-boundary
/// transitions (re-initialising from ~b_k to b_{k+1}) keep their
/// fault-sensitising effect. One pass covers every ⇕ expansion, walking
/// the choices as one prefix-sharing tree (word_kernels.hpp): per-lane
/// mismatch masks are OR-ed along each root-to-leaf path and intersected
/// across the leaves — the guaranteed-detection semantics of
/// word::detects, one memory sweep per 63·W faults instead of one per
/// fault.
///
/// This is the one packed runner: engine::PackedBackend also answers
/// bit-universe queries with it, as words = n cells of width 1 under the
/// solid background, and a plan of width 1 runs the compile-time width-1
/// pass (see word_kernels.hpp). It keeps one runner per thread for both
/// universes and retargets it at each query with reset, which refills
/// the plan's buffers instead of building a new plan.
///
/// The block width W ∈ {1, 4, 8} is chosen once per process by runtime
/// CPUID dispatch (AVX-512 → 8, AVX2 → 4, else 1 — see lane_dispatch.hpp)
/// or per runner via the constructor, and is bit-identical across widths.
/// Every query goes through one dispatch, population size → lane block →
/// pass: a population of at most three plane words runs W=1, any other the
/// runner's width, and a W=8 pass runs the zmm wrapper on every AVX-512F
/// host (sim::active_lane_isa). The chunks are sharded across a
/// util::ThreadPool, one work item per chunk writing its own result slot,
/// and detects_all fail-fasts through a shared atomic flag that every
/// chunk's walk checks at its leaves. Results are bit-identical for every
/// worker count.

#include <span>
#include <vector>

#include "march/march_test.hpp"
#include "sim/lane_dispatch.hpp"
#include "util/thread_pool.hpp"
#include "word/word_kernels.hpp"
#include "word/word_march.hpp"
#include "word/word_trace.hpp"

namespace mtg::fault {
struct FaultInstance;
}

namespace mtg::word {

/// Reusable batched evaluator for one word test. Precomputes the ⇕
/// expansion set once, then serves any number of populations.
/// `lane_width` runs exactly that block width (1, 4 or 8); 0 uses the
/// process-wide active_lane_width(), clamped per population.
class WordBatchRunner {
public:
    WordBatchRunner(const march::MarchTest& test,
                    const std::vector<Background>& backgrounds,
                    const WordRunOptions& opts = {},
                    util::ThreadPool* pool = nullptr, int lane_width = 0) {
        reset(test, backgrounds, opts, pool, lane_width);
    }

    /// Retargets the runner at a new query, as if constructed from these
    /// arguments: the test, its ⇕ expansions, its read sites and the
    /// backgrounds are copied into the buffers the runner already holds,
    /// so a runner reused across queries (engine::PackedBackend keeps one
    /// per thread) allocates only when a query outgrows them. Requires
    /// valid_setup(backgrounds, opts); a failed precondition leaves the
    /// runner as it was.
    void reset(const march::MarchTest& test,
               const std::vector<Background>& backgrounds,
               const WordRunOptions& opts, util::ThreadPool* pool,
               int lane_width);

    /// Guaranteed detection under EVERY ⇕ expansion (the word::detects
    /// semantics), element i answering for population[i].
    [[nodiscard]] std::vector<bool> detects(
        std::span<const InjectedBitFault> population) const;

    /// True when every population member is detected; the first leaf with
    /// an escaping lane raises an atomic flag that stops every chunk's
    /// walk at its next leaf.
    [[nodiscard]] bool detects_all(
        std::span<const InjectedBitFault> population) const;

    /// Full guaranteed traces: element i holds the (background, site)
    /// reads and (background, site, word, bits) observations of
    /// population[i] that fail in EVERY ⇕ expansion, in canonical order —
    /// bit-identical to the scalar word::guaranteed_trace oracle. Sharded
    /// chunk-wise (each chunk writes a disjoint result range).
    [[nodiscard]] std::vector<WordRunTrace> run(
        std::span<const InjectedBitFault> population) const;

    [[nodiscard]] const march::MarchTest& test() const { return plan_.test; }
    [[nodiscard]] const WordRunOptions& options() const {
        return plan_.opts;
    }

    /// Block width this runner executes with (1, 4 or 8 plane words). An
    /// auto-detected width is an upper bound: per call the runner runs a
    /// population of at most three plane words at W=1 (results are
    /// bit-identical at every width); an explicit constructor width is
    /// exact.
    [[nodiscard]] int lane_width() const { return width_; }

private:
    detail::WordPlan plan_;
    int width_{0};
    bool adaptive_{false};

    /// Calls `job` with the pass for a population of this size: the lane
    /// block of the (clamped) width, and for W=8 the codegen
    /// sim::active_lane_isa picks for the host.
    template <typename Job>
    auto dispatch(std::size_t population, Job job) const {
        const int bits = plan_.opts.width;
        switch (adaptive_ ? sim::clamp_lane_width(width_, population)
                          : width_) {
            case 4:
                return job(detail::generic_pass<LaneBlock<4>>(bits));
            case 8:
                return job(detail::word_pass_w8(bits));
            default:
                return job(detail::generic_pass<LaneMask>(bits));
        }
    }
};

/// The placements a word-universe kind query (engine::Engine::
/// covers_everywhere and the other word kind queries) sweeps for `kind`:
/// every (word, bit) for single-bit kinds; for two-cell kinds every
/// ordered intra-word bit pair of the representative word, every ordered
/// inter-word pair on the representative bit, plus one cross-bit pair.
/// For two-cell kinds this samples the placements; it is not all of them.
/// Under counting backgrounds the bit positions do not behave alike, so
/// a query over the sample can report covered while an unsampled
/// placement escapes: March X × CFid<^,0> on 8 words × 8 bits is
/// reported covered, yet the placement (word 0, bit 0) → (word 1, bit 0)
/// escapes.
[[nodiscard]] std::vector<InjectedBitFault> coverage_population(
    fault::FaultKind kind, const WordRunOptions& opts);

/// Canonical concrete placement of a fault instance on a words × width
/// memory: representative words words/3 and 2·words/3 (ordered by the
/// instance's aggressor role) on the representative bit width/2 — the
/// word-path analogue of sim::place_instance (at width 1 and words =
/// memory_size the placements coincide), and the population of the
/// diagnosis dictionary.
[[nodiscard]] InjectedBitFault place_instance(
    const fault::FaultInstance& instance, const WordRunOptions& opts);

}  // namespace mtg::word
