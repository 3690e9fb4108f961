#pragma once

/// \file packed_memory.hpp
/// Bit-parallel counterpart of SimMemory: 64·W independent fault instances
/// are simulated at once, one lane per bit of a LaneBlock plane pair per
/// cell (W plane words per block; see lane_block.hpp).
///
/// Each cell is represented by two lane blocks: `value` (lane l = stored
/// bit of lane l) and `known` (lane l = lane l holds a definite 0/1 rather
/// than X). Every memory operation is a handful of bitwise operations over
/// those blocks, so one pass over a March test evaluates 63·W faults. By
/// convention bit 0 of every plane word is left fault-free as the
/// reference, which keeps each word bit-identical to the scalar W=1 path.
///
/// Per-fault bookkeeping (coupling, static-coupling and decoder-map
/// entries) is stored word-sparse: a fault occupies one lane in ONE plane
/// word, so its entry carries (word index, 64-bit mask) and is applied at
/// scalar cost regardless of the block width — only the aggregate
/// single-cell masks and the plane updates widen with W.
///
/// Restriction: at most ONE injected fault per lane. The scalar SimMemory
/// composes multiple faults in injection order, which has no bitwise
/// equivalent; population evaluation (the batch use case) never needs more
/// than one fault per lane. SimMemory remains the multi-fault oracle, and
/// tests/packed_sim_test.cpp proves lane-for-lane equivalence against it.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/lane_block.hpp"
#include "sim/memory.hpp"
#include "util/trit.hpp"

namespace mtg::sim {

/// n-cell RAM simulating up to 64·W fault instances in parallel. Cells
/// start uninitialised (X) in every lane. `Block` is LaneMask (scalar) or
/// a LaneBlock<W>.
template <typename Block>
class PackedSimMemoryT {
public:
    explicit PackedSimMemoryT(int cell_count)
        : value_(static_cast<std::size_t>(cell_count), block_zero<Block>()),
          known_(static_cast<std::size_t>(cell_count), block_zero<Block>()),
          single_(static_cast<std::size_t>(cell_count)),
          coupling_(static_cast<std::size_t>(cell_count)),
          afmap_(static_cast<std::size_t>(cell_count)) {
        MTG_EXPECTS(cell_count > 0);
    }

    [[nodiscard]] int size() const { return static_cast<int>(value_.size()); }

    /// Re-arms the memory for a new chunk: every lane back to X, every
    /// fault forgotten — but every allocation kept at its high-water
    /// capacity (the inner coupling/static/map vectors only clear()).
    /// Dirty-index lists keep the cost at O(cells touched by faults), so
    /// injecting a 63·W-fault chunk pays no malloc traffic; the batch
    /// kernels' thread-local scratch (sim/pass_scratch.hpp) calls this
    /// when the chunk or the geometry changes.
    void reset(int cell_count) {
        MTG_EXPECTS(cell_count > 0);
        for (int c : single_dirty_)
            single_[static_cast<std::size_t>(c)] = SingleCellMasks{};
        single_dirty_.clear();
        for (int c : coupling_dirty_)
            coupling_[static_cast<std::size_t>(c)].clear();
        coupling_dirty_.clear();
        for (int c : afmap_dirty_)
            afmap_[static_cast<std::size_t>(c)].clear();
        afmap_dirty_.clear();
        static_.clear();
        occupied_ = block_zero<Block>();
        const auto n = static_cast<std::size_t>(cell_count);
        if (n != value_.size()) {
            value_.resize(n);
            known_.resize(n);
            single_.resize(n);
            coupling_.resize(n);
            afmap_.resize(n);
        }
        clear_cells();
    }

    /// Puts every cell back to X in every lane and keeps the injected
    /// faults. Reads, writes and waits change nothing but the value/known
    /// planes, so a memory holding a chunk can run another pass over it
    /// after this without re-injecting.
    void clear_cells() {
        std::fill(value_.begin(), value_.end(), block_zero<Block>());
        std::fill(known_.begin(), known_.end(), block_zero<Block>());
    }

    /// Injects `fault` into every lane of `lanes`. Lanes must not already
    /// hold a fault (see the one-fault-per-lane restriction above).
    void inject(const InjectedFault& fault, Block lanes) {
        check_addr(fault.cell_a);
        if (fault.cell_b >= 0) check_addr(fault.cell_b);
        MTG_EXPECTS(block_none(occupied_ & lanes));  // one fault per lane
        occupied_ |= lanes;

        if (!fault::is_two_cell(fault.kind))
            single_dirty_.push_back(fault.cell_a);
        auto& s = single_[static_cast<std::size_t>(fault.cell_a)];
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
            case fault::FaultKind::Drf0: s.drf0 |= lanes; return;
            case fault::FaultKind::Drf1: s.drf1 |= lanes; return;
            case fault::FaultKind::CfinUp:
            case fault::FaultKind::CfinDown:
            case fault::FaultKind::CfidUp0:
            case fault::FaultKind::CfidUp1:
            case fault::FaultKind::CfidDown0:
            case fault::FaultKind::CfidDown1:
            case fault::FaultKind::Af:
                coupling_dirty_.push_back(fault.cell_a);
                for_each_block_word(lanes, [&](int w, LaneMask m) {
                    coupling_[static_cast<std::size_t>(fault.cell_a)]
                        .push_back({fault.kind, fault.cell_b, w, m});
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
                afmap_dirty_.push_back(fault.cell_a);
                for_each_block_word(lanes, [&](int w, LaneMask m) {
                    afmap_[static_cast<std::size_t>(fault.cell_a)].push_back(
                        {fault.cell_b, w, m});
                });
                return;
        }
        MTG_ASSERT(false && "unhandled fault kind");
    }

    /// Per-lane outcome of a read: lane l of `value` is the value seen by
    /// lane l, valid only where lane l of `known` is set (clear = X).
    struct ReadResult {
        Block value{};
        Block known{};
    };

    /// Write value d (0/1) to `addr` in every lane, applying fault effects.
    void write(int addr, int d) {
        check_addr(addr);
        const auto a = static_cast<std::size_t>(addr);
        const Block dmask = block_fill<Block>(d != 0);

        // Decoder-map lanes: the access is redirected to the victim cell.
        Block redirected = block_zero<Block>();
        const LaneMask dword = d ? kAllLanes : LaneMask{0};
        for (const MapEntry& m : afmap_[a]) {
            const auto v = static_cast<std::size_t>(m.victim);
            LaneMask& vv = block_word_ref(value_[v], m.word);
            vv = (vv & ~m.lanes) | (dword & m.lanes);
            block_word_ref(known_[v], m.word) |= m.lanes;
            block_word_ref(redirected, m.word) |= m.lanes;
        }
        const Block active = ~redirected;

        const Block old_v = value_[a];
        const Block old_k = known_[a];
        const Block old0 = old_k & ~old_v;  // lanes with a known stored 0
        const Block old1 = old_k & old_v;   // lanes with a known stored 1

        // Effective written value per lane. The single-cell masks are
        // disjoint lane-wise (one fault per lane), so sequential
        // application is exact.
        const SingleCellMasks& s = single_[a];
        Block eff = dmask;
        eff = (eff & ~s.saf0) | s.saf1;
        if (d == 1) {
            eff &= ~(s.tf_up & old0);  // 0 -> 1 transition fails
            eff &= ~(s.wdf1 & old1);   // w1 over a 1 flips the cell to 0
        } else {
            eff |= s.tf_down & old1;  // 1 -> 0 transition fails
            eff |= s.wdf0 & old0;     // w0 over a 0 flips the cell to 1
        }

        value_[a] = (old_v & ~active) | (eff & active);
        known_[a] |= active;

        // Coupling sensitised by the stored-value transition of this
        // aggressor. Entries are word-sparse, so each fault's effect costs
        // one word regardless of the block width.
        const Block rising = active & old0 & eff;
        const Block falling = active & old1 & ~eff;
        for (const CouplingEntry& c : coupling_[a]) {
            const auto v = static_cast<std::size_t>(c.victim);
            const int bw = c.word;
            LaneMask t = 0;
            switch (c.kind) {
                case fault::FaultKind::CfinUp:
                    t = c.lanes & block_word(rising, bw);
                    block_word_ref(value_[v], bw) ^=
                        t & block_word(known_[v], bw);  // X victims stay X
                    continue;
                case fault::FaultKind::CfinDown:
                    t = c.lanes & block_word(falling, bw);
                    block_word_ref(value_[v], bw) ^=
                        t & block_word(known_[v], bw);
                    continue;
                case fault::FaultKind::CfidUp0:
                case fault::FaultKind::CfidUp1:
                    t = c.lanes & block_word(rising, bw);
                    break;
                case fault::FaultKind::CfidDown0:
                case fault::FaultKind::CfidDown1:
                    t = c.lanes & block_word(falling, bw);
                    break;
                case fault::FaultKind::Af:
                    t = c.lanes & block_word(active, bw);
                    break;
                default:
                    MTG_ASSERT(false && "not a coupling kind");
                    break;
            }
            if (!t) continue;
            switch (c.kind) {
                case fault::FaultKind::CfidUp0:
                case fault::FaultKind::CfidDown0:
                    block_word_ref(value_[v], bw) &= ~t;
                    break;
                case fault::FaultKind::CfidUp1:
                case fault::FaultKind::CfidDown1:
                    block_word_ref(value_[v], bw) |= t;
                    break;
                case fault::FaultKind::Af: {
                    // Shorted decoder: the write lands on the victim too.
                    LaneMask& vv = block_word_ref(value_[v], bw);
                    vv = (vv & ~t) | (block_word(eff, bw) & t);
                    break;
                }
                default:
                    break;
            }
            block_word_ref(known_[v], bw) |= t;
        }

        enforce_static_coupling();
    }

    /// Read `addr` in every lane, applying fault effects (read disturbs).
    [[nodiscard]] ReadResult read(int addr) {
        check_addr(addr);
        const auto a = static_cast<std::size_t>(addr);

        // Decoder-map lanes observe the victim's cell instead.
        ReadResult out;
        Block redirected = block_zero<Block>();
        for (const MapEntry& m : afmap_[a]) {
            const auto v = static_cast<std::size_t>(m.victim);
            block_word_ref(out.value, m.word) |=
                block_word(value_[v], m.word) & m.lanes;
            block_word_ref(out.known, m.word) |=
                block_word(known_[v], m.word) & m.lanes;
            block_word_ref(redirected, m.word) |= m.lanes;
        }
        const Block active = ~redirected;

        const Block cell_v = value_[a];
        const Block cell_k = known_[a];
        const Block is0 = cell_k & ~cell_v;
        const Block is1 = cell_k & cell_v;
        const SingleCellMasks& s = single_[a];

        Block seen_v = cell_v;
        Block seen_k = cell_k;
        // Stuck-at cells always read back the stuck value, even before any
        // write has initialised them.
        seen_v = (seen_v & ~s.saf0) | s.saf1;
        seen_k |= s.saf0 | s.saf1;

        Block t;
        t = s.rdf0 & is0;  // flips the cell and returns the wrong value
        value_[a] |= t;
        seen_v |= t;
        t = s.rdf1 & is1;
        value_[a] = value_[a] & ~t;
        seen_v = seen_v & ~t;
        t = s.drdf0 & is0;  // deceptive: flips the cell, returns old value
        value_[a] |= t;
        t = s.drdf1 & is1;
        value_[a] = value_[a] & ~t;
        seen_v |= s.irf0 & is0;  // wrong value, no flip
        seen_v = seen_v & ~(s.irf1 & is1);

        out.value |= seen_v & active;
        out.known |= seen_k & active;
        out.value &= out.known;  // normalise: X lanes report 0

        enforce_static_coupling();
        return out;
    }

    /// Elapse the data-retention period in every lane.
    void wait() {
        for (std::size_t c = 0; c < value_.size(); ++c) {
            const SingleCellMasks& s = single_[c];
            if (block_none(s.drf0 | s.drf1)) continue;
            const Block is0 = known_[c] & ~value_[c];
            const Block is1 = known_[c] & value_[c];
            value_[c] = (value_[c] & ~(s.drf0 & is1)) | (s.drf1 & is0);
        }
        enforce_static_coupling();
    }

    /// Raw cell value of one lane without triggering read faults (tests).
    [[nodiscard]] Trit peek(int addr, int lane) const {
        check_addr(addr);
        MTG_EXPECTS(lane >= 0 && lane < block_lane_count<Block>);
        if (!block_test(known_[static_cast<std::size_t>(addr)], lane))
            return Trit::X;
        return block_test(value_[static_cast<std::size_t>(addr)], lane)
                   ? Trit::One
                   : Trit::Zero;
    }

    /// Directly sets a cell in the given lanes, bypassing fault effects.
    void poke(int addr, Block lanes, Trit v) {
        check_addr(addr);
        const auto a = static_cast<std::size_t>(addr);
        if (v == Trit::X) {
            known_[a] &= ~lanes;
            value_[a] &= ~lanes;
        } else {
            known_[a] |= lanes;
            value_[a] = v == Trit::One ? (value_[a] | lanes)
                                       : (value_[a] & ~lanes);
        }
        enforce_static_coupling();
    }

private:
    /// Per-cell lane blocks of the single-cell fault kinds (aggregated
    /// across every fault injected at the cell, so these stay dense).
    struct SingleCellMasks {
        Block saf0{}, saf1{};
        Block tf_up{}, tf_down{};
        Block wdf0{}, wdf1{};
        Block rdf0{}, rdf1{};
        Block drdf0{}, drdf1{};
        Block irf0{}, irf1{};
        Block drf0{}, drf1{};
    };
    /// Transition/Af coupling bound to an aggressor cell. Word-sparse: the
    /// fault's lanes live in plane word `word` of the block.
    struct CouplingEntry {
        fault::FaultKind kind;
        int victim;
        int word;
        LaneMask lanes;
    };
    /// State coupling ⟨sv,fv⟩ — enforced after every state change.
    struct StaticEntry {
        int aggressor;
        int victim;
        bool sense;  ///< aggressor value that sensitises
        bool force;  ///< value forced onto the victim
        int word;
        LaneMask lanes;
    };
    /// Decoder-map fault: accesses to `aggressor` land on `victim`.
    struct MapEntry {
        int victim;
        int word;
        LaneMask lanes;
    };

    std::vector<Block> value_;
    std::vector<Block> known_;
    std::vector<SingleCellMasks> single_;
    std::vector<std::vector<CouplingEntry>> coupling_;  ///< by aggressor
    std::vector<std::vector<MapEntry>> afmap_;          ///< by aggressor
    std::vector<StaticEntry> static_;
    Block occupied_{};  ///< lanes already holding a fault
    // Cells whose single/coupling/afmap entries a reset() must undo
    // (duplicates are fine — clearing is idempotent).
    std::vector<int> single_dirty_;
    std::vector<int> coupling_dirty_;
    std::vector<int> afmap_dirty_;

    void check_addr(int addr) const {
        MTG_EXPECTS(addr >= 0 && addr < size());
    }

    void push_static(const InjectedFault& fault, bool sense, bool force,
                     const Block& lanes) {
        for_each_block_word(lanes, [&](int w, LaneMask m) {
            static_.push_back(
                {fault.cell_a, fault.cell_b, sense, force, w, m});
        });
    }

    void enforce_static_coupling() {
        for (const StaticEntry& s : static_) {
            const LaneMask av =
                block_word(value_[static_cast<std::size_t>(s.aggressor)],
                           s.word);
            const LaneMask ak =
                block_word(known_[static_cast<std::size_t>(s.aggressor)],
                           s.word);
            const LaneMask match = s.lanes & ak & (s.sense ? av : ~av);
            if (!match) continue;
            LaneMask& vv = block_word_ref(
                value_[static_cast<std::size_t>(s.victim)], s.word);
            vv = s.force ? (vv | match) : (vv & ~match);
            block_word_ref(known_[static_cast<std::size_t>(s.victim)],
                           s.word) |= match;
        }
    }
};

/// The scalar 64-lane memory of PR 1 — template instantiated at W=1.
/// (Implicit instantiation everywhere: the definitions must stay visible
/// and inlinable so the `target`-attributed kernel wrappers can flatten
/// them with vector codegen.)
using PackedSimMemory = PackedSimMemoryT<LaneMask>;

}  // namespace mtg::sim
