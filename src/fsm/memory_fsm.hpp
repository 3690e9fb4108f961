#pragma once

/// \file memory_fsm.hpp
/// Deterministic Mealy automaton model of a two-cell RAM (paper §3).
///
/// M = (Q, X, Y, δ, λ) with Q the four fully known states {00,01,10,11},
/// X the seven inputs {r_i, r_j, w0_i, w1_i, w0_j, w1_j, T} and
/// Y = {0, 1, -}. The fault-free machine M0 (Figure 1) writes/waits with
/// output `-` and reads with the stored value. A faulty machine Mi differs
/// from M0 in its δ and/or λ entries; a Basic Fault Effect (BFE) is a single
/// such difference (paper §3, Figure 3).

#include <string>
#include <vector>

#include "fsm/abstract_op.hpp"
#include "fsm/pair_state.hpp"
#include "util/trit.hpp"

namespace mtg::fsm {

/// The seven-symbol input alphabet X of the memory model, as an index type.
enum class Input : std::uint8_t {
    Ri = 0,   ///< read cell i
    Rj = 1,   ///< read cell j
    W0i = 2,  ///< write 0 into cell i
    W1i = 3,  ///< write 1 into cell i
    W0j = 4,  ///< write 0 into cell j
    W1j = 5,  ///< write 1 into cell j
    T = 6,    ///< wait (data-retention delay)
};

inline constexpr int kInputCount = 7;
inline constexpr int kStateCount = 4;

/// All inputs in index order.
[[nodiscard]] const std::vector<Input>& all_inputs();

/// Human-readable input name: "ri", "w0j", "T", ...
[[nodiscard]] std::string input_str(Input in);

/// Classification helpers.
[[nodiscard]] constexpr bool is_read(Input in) {
    return in == Input::Ri || in == Input::Rj;
}
[[nodiscard]] constexpr bool is_write(Input in) {
    return in == Input::W0i || in == Input::W1i || in == Input::W0j ||
           in == Input::W1j;
}

/// The cell addressed by a read/write input. Precondition: not T.
[[nodiscard]] Cell input_cell(Input in);

/// The value written by a write input. Precondition: is_write(in).
[[nodiscard]] int input_value(Input in);

/// Builds the write input for (cell, value) / the read input for a cell.
[[nodiscard]] Input write_input(Cell c, int value);
[[nodiscard]] Input read_input(Cell c);

/// Converts an input symbol to an AbstractOp. Reads get expected value
/// `expected` (pass the good-machine stored value to build a verify-read).
[[nodiscard]] AbstractOp input_to_op(Input in, int expected = 0);

/// One Basic Fault Effect: a single δ-entry or λ-entry of a faulty machine
/// that differs from M0. The paper shows (Figure 3) how a fault machine
/// splits into these.
struct Bfe {
    PairState state;       ///< source state of the perturbed entry (fully known)
    Input input{Input::T}; ///< input symbol of the perturbed entry
    PairState good_next;   ///< δ0(state, input)
    PairState faulty_next; ///< δi(state, input); == good_next for pure λ-faults
    Trit good_out{Trit::X};    ///< λ0(state, input)
    Trit faulty_out{Trit::X};  ///< λi(state, input); == good_out for pure δ-faults

    [[nodiscard]] bool is_delta_fault() const { return faulty_next != good_next; }
    [[nodiscard]] bool is_lambda_fault() const { return faulty_out != good_out; }

    /// e.g. "δ(01,w1i): 11 -> 10" or "λ(10,ri): 1 -> 0".
    [[nodiscard]] std::string str() const;
};

/// Deterministic Mealy automaton over the fixed alphabet above. Value type;
/// M0 and every faulty Mi use this one class.
class MemoryFsm {
public:
    /// Fault-free machine M0 of Figure 1.
    static MemoryFsm good();

    /// δ(state, input): states are the four known states.
    [[nodiscard]] PairState next(const PairState& state, Input in) const;

    /// λ(state, input): the read value for reads, X ('-') otherwise.
    [[nodiscard]] Trit output(const PairState& state, Input in) const;

    /// δ and λ on a state index (PairState::index(), 0..3): the raw table
    /// lookups the GTS simulator (sim/two_cell_sim) walks once per op.
    [[nodiscard]] int next(int state, Input in) const {
        return next_[raw_slot(state, in)];
    }
    [[nodiscard]] Trit output(int state, Input in) const {
        return out_[raw_slot(state, in)];
    }

    /// Overrides one δ entry (builds a faulty machine).
    void set_next(const PairState& state, Input in, const PairState& next);

    /// Overrides one λ entry.
    void set_output(const PairState& state, Input in, Trit out);

    /// Runs an input word from `start`, returning the final state. Outputs
    /// are appended to `outputs` when non-null.
    [[nodiscard]] PairState run(const PairState& start,
                                const std::vector<Input>& word,
                                std::vector<Trit>* outputs = nullptr) const;

    /// Lists every entry where this machine differs from `reference`
    /// (normally M0): the machine's BFE decomposition.
    [[nodiscard]] std::vector<Bfe> diff(const MemoryFsm& reference) const;

    /// Number of entries differing from `reference`.
    [[nodiscard]] int perturbation_count(const MemoryFsm& reference) const;

    /// Full transition/output table as text (the programmatic rendition of
    /// Figure 1 used by examples/fsm_dump).
    [[nodiscard]] std::string table_str() const;

    friend bool operator==(const MemoryFsm&, const MemoryFsm&) = default;

private:
    MemoryFsm() = default;

    // next_[state][input] as state index; out_[state][input].
    std::array<std::uint8_t, kStateCount * kInputCount> next_{};
    std::array<Trit, kStateCount * kInputCount> out_{};

    [[nodiscard]] static int slot(const PairState& state, Input in);
    [[nodiscard]] static std::size_t raw_slot(int state, Input in) {
        return static_cast<std::size_t>(state * kInputCount +
                                        static_cast<int>(in));
    }
};

}  // namespace mtg::fsm
