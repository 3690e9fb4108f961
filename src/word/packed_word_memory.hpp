#pragma once

/// \file packed_word_memory.hpp
/// Bit-parallel counterpart of WordMemory: 64·W independent bit-fault
/// instances are simulated at once against the same word-oriented RAM.
/// It is the one packed memory of the repo: the bit-oriented n-cell memory
/// of the paper's simulator is this memory at width 1 (cell c = word c,
/// bit 0) under the solid background, and engine::PackedBackend runs
/// bit-universe queries exactly that way.
///
/// Packing layout: the memory holds words × width bit positions; every bit
/// position owns a `value` and a `known` lane block (W plane words, see
/// lane_block.hpp), lane l of a block belonging to simulation lane l. A
/// whole-word write touches `width` block pairs with a handful of bitwise
/// operations each; a whole-word read returns one {value, known} lane
/// block per bit. Bit 0 of every plane word is left fault-free as the
/// reference by convention, which keeps each plane word bit-identical to
/// the scalar W=1 path.
///
/// Word semantics mirror the scalar WordMemory exactly: writes resolve
/// every bit's own value first (phase 1), store the word, and only then
/// apply coupling effects of the aggressor-bit transitions (phase 2), so
/// an intra-word victim written in the same cycle is corrupted after its
/// own write; AfMap redirects whole-word accesses (word-level decoders
/// fail for whole words), and intra-word AfMap is inert, as in the scalar
/// model. Per-fault coupling/static/map/retention entries are word-sparse
/// (one lane lives in one plane word), so their cost stays scalar at any
/// width.
///
/// Per-op cost: a write costs its word's bits plus the decoder-map,
/// coupling and static-coupling entries filed at its word; a read costs
/// its word's bits plus the decoder-map entries at its word; a wait costs
/// the DRF entries. No op walks the whole memory or every fault. Within
/// that, a write or read skips work that a lane holding one fault makes an
/// exact no-op:
///   - the single-bit fault algebra runs only at bit positions holding a
///     single-bit fault (a flag per position, set by inject());
///   - a CFst entry filed under its aggressor word needs no read of the
///     aggressor planes: in a CFst lane no single-bit fault, redirect or
///     coupling can touch the aggressor, so after the write it holds the
///     written bit, and the entry fires in all its lanes exactly when its
///     sense equals that bit. Such entries are kept in two lists by sense.
///     Entries filed under their victim word keep the full check.
///
/// Invariant that lets reads and waits skip static coupling: a lane holds
/// one fault (inject() rejects a second), so the cells of a CFst lane
/// change only when its aggressor word or its victim word is written —
/// read() changes only RDF/DRDF lanes, wait() only DRF lanes, a decoder
/// redirect only AfMap lanes and phase-2 coupling only CFin/CFid/Af
/// lanes. Each CFst entry is therefore filed under its aggressor word and,
/// when different, its victim word, and write(w) enforces the entries at
/// w. Enforcement is idempotent (the aggressor is never the victim), so
/// dropping the calls that cannot change a lane changes no bit.
///
/// The word width is a template parameter: `Width` = 0 reads it at run
/// time, any other value fixes it at compile time, so the width-1
/// instantiation the bit universe runs on has no per-bit loops and sizes
/// its scratch planes to one bit.
///
/// Restriction: at most ONE injected fault per lane (multi-fault
/// composition is injection-order-dependent and has no bitwise
/// equivalent). WordMemory and sim::SimMemory remain the multi-fault
/// oracles; tests/word_batch_test.cpp and tests/packed_sim_test.cpp prove
/// lane-for-lane equivalence against them.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/lane_block.hpp"
#include "word/word_memory.hpp"

namespace mtg::word {

/// One bit per simulation lane; packing helpers from lane_block.hpp.
using sim::block_lane_count;
using sim::chunk_count;
using sim::for_each_block_word;
using sim::kAllLanes;
using sim::kChunkLanes;
using sim::kLaneCount;
using sim::LaneBlock;
using sim::LaneMask;
using sim::used_lanes;

/// words × width RAM simulating up to 64·W bit-fault instances in
/// parallel. All bits start uninitialised (X) in every lane. `Width` is
/// the word width when fixed at compile time, 0 when read at run time.
template <typename Block, int Width = 0>
class PackedWordMemoryT {
    static_assert(Width >= 0 && Width <= 64, "word width is 1..64 bits");
    /// Scratch planes a write or read needs: one per bit of the widest
    /// word this instantiation can hold.
    static constexpr int kMaxBits = Width != 0 ? Width : 64;

public:
    PackedWordMemoryT(int words, int width)
        : words_(words), width_(width),
          value_(static_cast<std::size_t>(words) *
                     static_cast<std::size_t>(width),
                 sim::block_zero<Block>()),
          known_(value_.size(), sim::block_zero<Block>()),
          single_(value_.size()),
          has_single_(value_.size(), 0),
          coupling_(static_cast<std::size_t>(words)),
          afmap_(static_cast<std::size_t>(words)),
          static_(static_cast<std::size_t>(words)) {
        MTG_EXPECTS(words > 0);
        MTG_EXPECTS(width >= 1 && width <= 64);
        MTG_EXPECTS(Width == 0 || width == Width);
    }

    [[nodiscard]] int words() const { return words_; }
    [[nodiscard]] int width() const { return Width != 0 ? Width : width_; }

    /// Re-arms the memory for a new chunk (possibly a new geometry):
    /// every bit back to X, every fault forgotten, every allocation kept
    /// at its high-water capacity. Dirty-index lists bound the cost by
    /// the bit positions faults actually touched, so injecting a 63·W
    /// chunk pays no malloc traffic; the batch kernels' thread-local
    /// scratch (sim/pass_scratch.hpp) calls this when the chunk or the
    /// geometry changes.
    void reset(int words, int width) {
        MTG_EXPECTS(words > 0);
        MTG_EXPECTS(width >= 1 && width <= 64);
        MTG_EXPECTS(Width == 0 || width == Width);
        for (std::size_t at : single_dirty_) {
            single_[at] = SingleBitMasks{};
            has_single_[at] = 0;
        }
        single_dirty_.clear();
        for (std::size_t w : coupling_dirty_) coupling_[w].clear();
        coupling_dirty_.clear();
        for (std::size_t w : afmap_dirty_) afmap_[w].clear();
        afmap_dirty_.clear();
        for (std::size_t w : static_dirty_) static_[w].clear();
        static_dirty_.clear();
        retention_.clear();
        occupied_ = sim::block_zero<Block>();
        words_ = words;
        width_ = width;
        const std::size_t bits = static_cast<std::size_t>(words) *
                                 static_cast<std::size_t>(width);
        if (bits != value_.size()) {
            value_.resize(bits);
            known_.resize(bits);
            single_.resize(bits);
            has_single_.resize(bits, 0);
        }
        const auto word_count = static_cast<std::size_t>(words);
        if (word_count != coupling_.size()) {
            coupling_.resize(word_count);
            afmap_.resize(word_count);
            static_.resize(word_count);
        }
        clear_cells();
    }

    /// Puts every bit back to X in every lane and keeps the injected
    /// faults. Reads, writes and waits change nothing but the value/known
    /// planes, so a memory holding a chunk can run another pass over it
    /// after this without re-injecting.
    void clear_cells() {
        std::fill(value_.begin(), value_.end(), sim::block_zero<Block>());
        std::fill(known_.begin(), known_.end(), sim::block_zero<Block>());
    }

    /// Blocks save_cells() copies: the value and the known plane.
    [[nodiscard]] std::size_t cell_blocks() const {
        return 2 * value_.size();
    }

    /// Copies the value/known planes, everything an op changes, to
    /// `to[0, cell_blocks())`; restore_cells() puts them back. The ⇕
    /// expansion walk snapshots a branch point with these.
    void save_cells(Block* to) const {
        std::copy(value_.begin(), value_.end(), to);
        std::copy(known_.begin(), known_.end(), to + value_.size());
    }
    void restore_cells(const Block* from) {
        std::copy(from, from + value_.size(), value_.begin());
        std::copy(from + value_.size(), from + cell_blocks(), known_.begin());
    }

    /// Injects `fault` into every lane of `lanes`. Lanes must not already
    /// hold a fault (one-fault-per-lane restriction).
    void inject(const InjectedBitFault& fault, Block lanes) {
        const std::size_t a = index(fault.a);
        MTG_EXPECTS(sim::block_none(occupied_ & lanes));  // one per lane
        occupied_ |= lanes;

        if (!fault::is_two_cell(fault.kind)) {
            single_dirty_.push_back(a);
            if (fault.kind != fault::FaultKind::Drf0 &&
                fault.kind != fault::FaultKind::Drf1)
                has_single_[a] = 1;
        }
        auto& s = single_[a];
        switch (fault.kind) {
            case fault::FaultKind::Saf0: s.saf0 |= lanes; return;
            case fault::FaultKind::Saf1: s.saf1 |= lanes; return;
            case fault::FaultKind::TfUp: s.tf_up |= lanes; return;
            case fault::FaultKind::TfDown: s.tf_down |= lanes; return;
            case fault::FaultKind::Wdf0: s.wdf0 |= lanes; return;
            case fault::FaultKind::Wdf1: s.wdf1 |= lanes; return;
            case fault::FaultKind::Rdf0: s.rdf0 |= lanes; return;
            case fault::FaultKind::Rdf1: s.rdf1 |= lanes; return;
            case fault::FaultKind::Drdf0: s.drdf0 |= lanes; return;
            case fault::FaultKind::Drdf1: s.drdf1 |= lanes; return;
            case fault::FaultKind::Irf0: s.irf0 |= lanes; return;
            case fault::FaultKind::Irf1: s.irf1 |= lanes; return;
            case fault::FaultKind::Drf0:
                push_retention(a, false, lanes);
                return;
            case fault::FaultKind::Drf1:
                push_retention(a, true, lanes);
                return;
            case fault::FaultKind::CfinUp:
            case fault::FaultKind::CfinDown:
            case fault::FaultKind::CfidUp0:
            case fault::FaultKind::CfidUp1:
            case fault::FaultKind::CfidDown0:
            case fault::FaultKind::CfidDown1:
            case fault::FaultKind::Af:
                coupling_dirty_.push_back(
                    static_cast<std::size_t>(fault.a.word));
                for_each_block_word(lanes, [&](int w, LaneMask m) {
                    coupling_[static_cast<std::size_t>(fault.a.word)]
                        .push_back({fault.kind, fault.a.bit, index(fault.b),
                                    w, m});
                });
                return;
            case fault::FaultKind::CfstS0F0:
                push_static(fault, false, false, lanes);
                return;
            case fault::FaultKind::CfstS0F1:
                push_static(fault, false, true, lanes);
                return;
            case fault::FaultKind::CfstS1F0:
                push_static(fault, true, false, lanes);
                return;
            case fault::FaultKind::CfstS1F1:
                push_static(fault, true, true, lanes);
                return;
            case fault::FaultKind::AfMap:
                // Word-level decoder fault; intra-word AfMap is inert in
                // the scalar model, so it stays inert here too.
                (void)index(fault.b);
                if (!fault.intra_word()) {
                    afmap_dirty_.push_back(
                        static_cast<std::size_t>(fault.a.word));
                    for_each_block_word(lanes, [&](int w, LaneMask m) {
                        afmap_[static_cast<std::size_t>(fault.a.word)]
                            .push_back({fault.b.word, w, m});
                    });
                }
                return;
        }
        MTG_ASSERT(false && "unhandled fault kind");
    }

    /// Per-lane outcome of one bit of a word read: lane l of `value` is
    /// the value lane l sees, valid only where lane l of `known` is set.
    struct ReadResult {
        Block value{};
        Block known{};
    };

    /// Writes the W-bit `value` to `word` in every lane, applying fault
    /// effects (the written word is the same for all lanes; the stored
    /// result differs per lane). Always inlined: the pass calls it for
    /// every write op, and past GCC's inline size limit that call cost
    /// the width-1 pass about 10%.
    [[gnu::always_inline]] void write(int word, std::uint64_t value) {
        MTG_EXPECTS(word >= 0 && word < words_);
        const int width = this->width();
        const auto w = static_cast<std::size_t>(word);
        const std::size_t base = w * static_cast<std::size_t>(width);

        // Decoder-map lanes: the whole word access lands on the victim
        // word. Entries are word-sparse within the lane block.
        Block redirected = sim::block_zero<Block>();
        for (const MapEntry& m : afmap_[w]) {
            const std::size_t vbase = static_cast<std::size_t>(m.victim_word) *
                                      static_cast<std::size_t>(width);
            for (int b = 0; b < width; ++b) {
                const LaneMask dword =
                    ((value >> b) & 1u) ? kAllLanes : LaneMask{0};
                LaneMask& vv = sim::block_word_ref(
                    value_[vbase + static_cast<std::size_t>(b)], m.word);
                vv = (vv & ~m.lanes) | (dword & m.lanes);
                sim::block_word_ref(
                    known_[vbase + static_cast<std::size_t>(b)], m.word) |=
                    m.lanes;
            }
            sim::block_word_ref(redirected, m.word) |= m.lanes;
        }
        const Block active = ~redirected;

        // Phase 1: per-bit effective values (single-bit effects on own
        // bit), plus the lanes whose stored value rises or falls — the
        // aggressor transitions phase 2 sensitises on. Phase 2 only
        // changes victim bits in the lanes of its own entry, and a lane
        // holds one fault, so a transition taken here is the one a
        // re-read after the whole word is stored would see.
        Block rising[kMaxBits];
        Block falling[kMaxBits];
        for (int b = 0; b < width; ++b) {
            const std::size_t at = base + static_cast<std::size_t>(b);
            const int d = static_cast<int>((value >> b) & 1u);
            const Block old_v = value_[at];
            const Block old_k = known_[at];
            const Block old0 = old_k & ~old_v;  // known stored 0
            const Block old1 = old_k & old_v;   // known stored 1
            known_[at] = old_k | active;
            if (!has_single_[at]) {
                // No single-bit fault here: every active lane stores d.
                if (d != 0) {
                    value_[at] = old_v | active;
                    rising[b] = active & old0;
                    falling[b] = sim::block_zero<Block>();
                } else {
                    value_[at] = old_v & ~active;
                    rising[b] = sim::block_zero<Block>();
                    falling[b] = active & old1;
                }
                continue;
            }

            // The single-bit masks are disjoint lane-wise (one fault per
            // lane), so sequential application is exact.
            const SingleBitMasks& s = single_[at];
            Block eff = sim::block_fill<Block>(d != 0);
            eff = (eff & ~s.saf0) | s.saf1;
            if (d == 1) {
                eff &= ~(s.tf_up & old0);  // 0 -> 1 transition fails
                eff &= ~(s.wdf1 & old1);   // w1 over a 1 flips the bit to 0
            } else {
                eff |= s.tf_down & old1;  // 1 -> 0 transition fails
                eff |= s.wdf0 & old0;     // w0 over a 0 flips the bit to 1
            }

            value_[at] = (old_v & ~active) | (eff & active);
            rising[b] = active & old0 & eff;
            falling[b] = active & old1 & ~eff;
        }

        // Phase 2: coupling sensitised by the aggressor-bit transitions of
        // this store, applied after the whole word is written. Per-fault
        // entries touch one plane word each.
        for (const CouplingEntry& c : coupling_[w]) {
            // A fixed width of 1 has one aggressor bit; saying so lets the
            // transition planes stay in registers.
            const int b = Width == 1 ? 0 : c.aggressor_bit;
            const int bw = c.word;
            const std::size_t v = c.victim;
            LaneMask t = 0;
            switch (c.kind) {
                case fault::FaultKind::CfinUp:
                    t = c.lanes & sim::block_word(rising[b], bw);
                    sim::block_word_ref(value_[v], bw) ^=
                        t & sim::block_word(known_[v], bw);  // X stays X
                    continue;
                case fault::FaultKind::CfinDown:
                    t = c.lanes & sim::block_word(falling[b], bw);
                    sim::block_word_ref(value_[v], bw) ^=
                        t & sim::block_word(known_[v], bw);
                    continue;
                case fault::FaultKind::CfidUp0:
                case fault::FaultKind::CfidUp1:
                    t = c.lanes & sim::block_word(rising[b], bw);
                    break;
                case fault::FaultKind::CfidDown0:
                case fault::FaultKind::CfidDown1:
                    t = c.lanes & sim::block_word(falling[b], bw);
                    break;
                case fault::FaultKind::Af:
                    t = c.lanes & sim::block_word(active, bw);
                    break;
                default:
                    MTG_ASSERT(false && "not a coupling kind");
                    break;
            }
            if (!t) continue;
            switch (c.kind) {
                case fault::FaultKind::CfidUp0:
                case fault::FaultKind::CfidDown0:
                    sim::block_word_ref(value_[v], bw) &= ~t;
                    break;
                case fault::FaultKind::CfidUp1:
                case fault::FaultKind::CfidDown1:
                    sim::block_word_ref(value_[v], bw) |= t;
                    break;
                case fault::FaultKind::Af: {
                    // Shorted decoder: the victim tracks the aggressor's
                    // newly stored value on every write to its word.
                    const LaneMask stored = sim::block_word(
                        value_[base + static_cast<std::size_t>(b)], bw);
                    LaneMask& vv = sim::block_word_ref(value_[v], bw);
                    vv = (vv & ~t) | (stored & t);
                    break;
                }
                default:
                    break;
            }
            sim::block_word_ref(known_[v], bw) |= t;
        }

        // State coupling: the entries whose aggressor or victim sits in
        // this word — the only ones this store can disturb (see the
        // invariant in the file comment). An entry filed by its aggressor
        // fires in all its lanes when its sense is the bit just written
        // there; at width 1 that is the whole sense list.
        const StaticLists& statics = static_[w];
        for (int sense = 0; sense < 2; ++sense) {
            if (Width == 1 && sense != static_cast<int>(value & 1u)) continue;
            for (const StaticEntry& s : statics.by_sense[sense]) {
                if (Width != 1 &&
                    static_cast<int>((value >> (s.aggressor - base)) & 1u) !=
                        sense)
                    continue;
                force_victim(s, s.lanes);
            }
        }
        for (const StaticEntry& s : statics.by_victim) {
            const int bw = static_cast<int>(s.word);
            const LaneMask av = sim::block_word(value_[s.aggressor], bw);
            const LaneMask ak = sim::block_word(known_[s.aggressor], bw);
            const LaneMask match = s.lanes & ak & (s.sense ? av : ~av);
            if (match) force_victim(s, match);
        }
    }

    /// Reads `word` in every lane, applying read-fault effects. `out` must
    /// point at width() entries, one per bit position.
    void read(int word, ReadResult* out) {
        MTG_EXPECTS(word >= 0 && word < words_);
        MTG_EXPECTS(out != nullptr);
        const int width = this->width();
        const auto w = static_cast<std::size_t>(word);
        const std::size_t base = w * static_cast<std::size_t>(width);

        // Decoder-map lanes observe the victim word instead.
        Block redirected = sim::block_zero<Block>();
        for (int b = 0; b < width; ++b) out[b] = ReadResult{};
        for (const MapEntry& m : afmap_[w]) {
            const std::size_t vbase = static_cast<std::size_t>(m.victim_word) *
                                      static_cast<std::size_t>(width);
            for (int b = 0; b < width; ++b) {
                sim::block_word_ref(out[b].value, m.word) |=
                    sim::block_word(
                        value_[vbase + static_cast<std::size_t>(b)], m.word) &
                    m.lanes;
                sim::block_word_ref(out[b].known, m.word) |=
                    sim::block_word(
                        known_[vbase + static_cast<std::size_t>(b)], m.word) &
                    m.lanes;
            }
            sim::block_word_ref(redirected, m.word) |= m.lanes;
        }
        const Block active = ~redirected;

        for (int b = 0; b < width; ++b) {
            const std::size_t at = base + static_cast<std::size_t>(b);
            const Block cell_v = value_[at];
            const Block cell_k = known_[at];
            Block seen_v = cell_v;
            Block seen_k = cell_k;
            if (has_single_[at]) {
                const Block is0 = cell_k & ~cell_v;
                const Block is1 = cell_k & cell_v;
                const SingleBitMasks& s = single_[at];

                // Stuck-at bits always read back the stuck value, even
                // before any write has initialised them.
                seen_v = (seen_v & ~s.saf0) | s.saf1;
                seen_k |= s.saf0 | s.saf1;

                Block t;
                t = s.rdf0 & is0;  // flips the bit, returns the wrong value
                value_[at] |= t;
                seen_v |= t;
                t = s.rdf1 & is1;
                value_[at] = value_[at] & ~t;
                seen_v = seen_v & ~t;
                t = s.drdf0 & is0;  // deceptive: flips, returns the old value
                value_[at] |= t;
                t = s.drdf1 & is1;
                value_[at] = value_[at] & ~t;
                seen_v |= s.irf0 & is0;  // wrong value, no flip
                seen_v = seen_v & ~(s.irf1 & is1);
            }

            out[b].value |= seen_v & active;
            out[b].known |= seen_k & active;
            out[b].value &= out[b].known;  // normalise: X lanes report 0
        }
    }

    /// Elapses the data-retention period in every lane: each DRF lane
    /// holding a known value decays to the entry's value.
    void wait() {
        for (const RetentionEntry& r : retention_) {
            const LaneMask decay =
                r.lanes & sim::block_word(known_[r.at], r.word);
            LaneMask& vv = sim::block_word_ref(value_[r.at], r.word);
            vv = r.to_one ? (vv | decay) : (vv & ~decay);
        }
    }

    /// Raw bit value of one lane without triggering read faults (tests).
    [[nodiscard]] Trit peek(BitAddr at, int lane) const {
        MTG_EXPECTS(lane >= 0 && lane < block_lane_count<Block>);
        const std::size_t i = index(at);
        if (!sim::block_test(known_[i], lane)) return Trit::X;
        return sim::block_test(value_[i], lane) ? Trit::One : Trit::Zero;
    }

private:
    /// Per-bit-position lane blocks of the single-bit fault kinds other
    /// than DRF (aggregated across faults, so these stay dense).
    struct SingleBitMasks {
        Block saf0{}, saf1{};
        Block tf_up{}, tf_down{};
        Block wdf0{}, wdf1{};
        Block rdf0{}, rdf1{};
        Block drdf0{}, drdf1{};
        Block irf0{}, irf1{};
    };
    /// Transition/Af coupling bound to an aggressor bit of some word.
    struct CouplingEntry {
        fault::FaultKind kind;
        int aggressor_bit;
        std::size_t victim;  ///< flat (word, bit) index
        int word;            ///< plane word of the block holding the lanes
        LaneMask lanes;
    };
    /// State coupling ⟨s; f⟩: while the aggressor holds `sense`, the
    /// victim is forced to `force`. Filed under the aggressor word and,
    /// when different, the victim word, and enforced by writes to those
    /// words. Packed into 16 bytes so filing an entry twice costs no more
    /// memory than one unpacked entry.
    struct StaticEntry {
        LaneMask lanes;
        std::uint32_t aggressor;    ///< flat (word, bit) index
        std::uint32_t victim : 27;  ///< flat (word, bit) index
        std::uint32_t word : 3;  ///< plane word of the block holding the lanes
        std::uint32_t sense : 1;  ///< aggressor value that sensitises
        std::uint32_t force : 1;  ///< value forced onto the victim
    };
    /// The CFst entries of one word: those whose aggressor sits in it, by
    /// sense, and those filed here only as the victim's word.
    struct StaticLists {
        std::vector<StaticEntry> by_sense[2];
        std::vector<StaticEntry> by_victim;
        [[nodiscard]] bool empty() const {
            return by_sense[0].empty() && by_sense[1].empty() &&
                   by_victim.empty();
        }
        void clear() {
            by_sense[0].clear();
            by_sense[1].clear();
            by_victim.clear();
        }
    };
    /// Bit positions a StaticEntry can index (its 27-bit victim field).
    static constexpr std::size_t kStaticIndexLimit = std::size_t{1} << 27;
    static_assert(sim::block_words<Block> <= 8,
                  "StaticEntry::word holds a plane word index below 8");
    /// Data-retention fault: a wait decays the known bit at `at` to
    /// `to_one`.
    struct RetentionEntry {
        std::size_t at;  ///< flat (word, bit) index
        int word;        ///< plane word of the block holding the lanes
        bool to_one;
        LaneMask lanes;
    };
    /// Word-decoder fault: whole-word accesses land on `victim_word`.
    struct MapEntry {
        int victim_word;
        int word;
        LaneMask lanes;
    };

    int words_;
    int width_;  ///< run-time width; width() folds it away when fixed
    std::vector<Block> value_;  ///< word-major (word * width + bit)
    std::vector<Block> known_;
    std::vector<SingleBitMasks> single_;
    /// 1 where single_ holds a fault: write() and read() skip the
    /// single-bit algebra at every other bit position.
    std::vector<std::uint8_t> has_single_;
    std::vector<std::vector<CouplingEntry>> coupling_;  ///< by aggr. word
    std::vector<std::vector<MapEntry>> afmap_;          ///< by aggr. word
    std::vector<StaticLists> static_;  ///< by aggr./victim word
    std::vector<RetentionEntry> retention_;  ///< the bits holding a DRF
    Block occupied_{};  ///< lanes already holding a fault
    // Flat bit / word indices a reset() must undo (duplicates are fine —
    // clearing is idempotent).
    std::vector<std::size_t> single_dirty_;
    std::vector<std::size_t> coupling_dirty_;
    std::vector<std::size_t> afmap_dirty_;
    std::vector<std::size_t> static_dirty_;

    [[nodiscard]] std::size_t index(BitAddr at) const {
        MTG_EXPECTS(at.word >= 0 && at.word < words_);
        MTG_EXPECTS(at.bit >= 0 && at.bit < width());
        return static_cast<std::size_t>(at.word) *
                   static_cast<std::size_t>(width()) +
               static_cast<std::size_t>(at.bit);
    }

    /// Forces the victim of `s` to its value in the lanes of `match`.
    void force_victim(const StaticEntry& s, LaneMask match) {
        const int bw = static_cast<int>(s.word);
        LaneMask& vv = sim::block_word_ref(value_[s.victim], bw);
        vv = s.force ? (vv | match) : (vv & ~match);
        sim::block_word_ref(known_[s.victim], bw) |= match;
    }

    void push_static(const InjectedBitFault& fault, bool sense, bool force,
                     const Block& lanes) {
        const std::size_t aggressor = index(fault.a);
        const std::size_t victim = index(fault.b);
        MTG_EXPECTS(aggressor < kStaticIndexLimit &&
                    victim < kStaticIndexLimit);
        const auto aw = static_cast<std::size_t>(fault.a.word);
        const auto vw = static_cast<std::size_t>(fault.b.word);
        // A word enters the dirty list with its first entry, so the list
        // stays bounded by the word count.
        if (static_[aw].empty()) static_dirty_.push_back(aw);
        if (static_[vw].empty()) static_dirty_.push_back(vw);
        for_each_block_word(lanes, [&](int w, LaneMask m) {
            const StaticEntry entry{m, static_cast<std::uint32_t>(aggressor),
                                    static_cast<std::uint32_t>(victim),
                                    static_cast<std::uint32_t>(w), sense,
                                    force};
            static_[aw].by_sense[sense].push_back(entry);
            if (vw != aw) static_[vw].by_victim.push_back(entry);
        });
    }

    void push_retention(std::size_t at, bool to_one, const Block& lanes) {
        for_each_block_word(lanes, [&](int w, LaneMask m) {
            retention_.push_back({at, w, to_one, m});
        });
    }
};

/// The scalar 64-lane word memory — one plane word per block, run-time
/// word width.
using PackedWordMemory = PackedWordMemoryT<LaneMask>;

}  // namespace mtg::word
