#pragma once

/// \file march_test.hpp
/// Intermediate representation of March tests.
///
/// A March test is a sequence of March elements; each element is a sequence
/// of read/write operations applied to every memory cell in a given address
/// order (ascending, descending, or either) before moving to the next cell
/// [van de Goor 1991, paper §1]. The complexity of a March test is the total
/// number of memory operations applied per cell.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/contracts.hpp"

namespace mtg::march {

/// Kind of a single March operation.
enum class OpKind : std::uint8_t {
    Read,   ///< read the cell and verify the value ("read-and-verify" r_d)
    Write,  ///< write a value
    Wait,   ///< wait/delay (the paper's `T` input, for data-retention faults)
};

/// One operation of a March element.
struct MarchOp {
    OpKind kind{OpKind::Read};
    std::uint8_t value{0};  ///< expected value for Read, written value for Write

    /// Read-and-verify of value `d` (0 or 1).
    static constexpr MarchOp r(int d) {
        return MarchOp{OpKind::Read, static_cast<std::uint8_t>(d != 0)};
    }
    /// Write of value `d` (0 or 1).
    static constexpr MarchOp w(int d) {
        return MarchOp{OpKind::Write, static_cast<std::uint8_t>(d != 0)};
    }
    /// Wait for the data-retention delay.
    static constexpr MarchOp del() { return MarchOp{OpKind::Wait, 0}; }

    /// A Wait carries no data value: every simulator ignores `value` for
    /// Wait ops and "del" prints without one, so comparison must too —
    /// otherwise a hand-built `{Wait, 1}` breaks the parse(render(t)) == t
    /// round trip that the synthesis probe cache keys on.
    friend constexpr bool operator==(const MarchOp& a, const MarchOp& b) {
        if (a.kind != b.kind) return false;
        return a.kind == OpKind::Wait || a.value == b.value;
    }

    /// "r0", "w1", "del".
    [[nodiscard]] std::string str() const;
};

/// Address order of a March element.
enum class AddressOrder : std::uint8_t {
    Ascending,   ///< ⇑ : cells visited from address 0 upward
    Descending,  ///< ⇓ : cells visited from the top address downward
    Any,         ///< ⇕ : either order may be used by the implementation
};

/// Returns the opposite concrete order (Ascending <-> Descending).
constexpr AddressOrder opposite(AddressOrder o) {
    MTG_EXPECTS(o != AddressOrder::Any);
    return o == AddressOrder::Ascending ? AddressOrder::Descending
                                        : AddressOrder::Ascending;
}

/// Printing style for March tests.
enum class Notation : std::uint8_t {
    Ascii,    ///< ^ (asc), v (desc), ~ (any)
    Unicode,  ///< ⇑, ⇓, ⇕
};

/// One March element: an address order plus the per-cell operation sequence.
struct MarchElement {
    AddressOrder order{AddressOrder::Any};
    std::vector<MarchOp> ops;

    MarchElement() = default;
    MarchElement(AddressOrder o, std::vector<MarchOp> operations)
        : order(o), ops(std::move(operations)) {
        MTG_EXPECTS(!ops.empty());
    }
    MarchElement(AddressOrder o, std::initializer_list<MarchOp> operations)
        : MarchElement(o, std::vector<MarchOp>(operations)) {}

    friend bool operator==(const MarchElement&, const MarchElement&) = default;

    /// e.g. "^(r0,w1)".
    [[nodiscard]] std::string str(Notation n = Notation::Ascii) const;

    /// Number of memory operations (Wait excluded, as in the paper's
    /// complexity metric which counts memory operations).
    [[nodiscard]] int op_count() const;
};

/// A complete March test.
class MarchTest {
public:
    MarchTest() = default;
    explicit MarchTest(std::vector<MarchElement> elements)
        : elements_(std::move(elements)) {}
    MarchTest(std::initializer_list<MarchElement> elements)
        : elements_(elements) {}

    [[nodiscard]] const std::vector<MarchElement>& elements() const {
        return elements_;
    }
    [[nodiscard]] bool empty() const { return elements_.empty(); }
    [[nodiscard]] std::size_t size() const { return elements_.size(); }
    [[nodiscard]] const MarchElement& operator[](std::size_t i) const {
        MTG_EXPECTS(i < elements_.size());
        return elements_[i];
    }

    void push_back(MarchElement e) { elements_.push_back(std::move(e)); }

    /// Removes op `o` of element `e`, and the element with it when that
    /// was its last op.
    void erase_op(std::size_t e, std::size_t o);

    /// Removes element `e`.
    void erase_element(std::size_t e);

    /// Complexity = total number of memory operations per cell. A test of
    /// complexity k is conventionally written "kn". Wait operations are not
    /// counted (they are delays, not memory operations).
    [[nodiscard]] int complexity() const;

    /// Total number of read operations (observation points).
    [[nodiscard]] int read_count() const;

    /// True if the test contains at least one Wait (needed for DRF).
    [[nodiscard]] bool has_wait() const;

    /// e.g. "{~(w0); ^(r0,w1); v(r1,w0)}".
    [[nodiscard]] std::string str(Notation n = Notation::Ascii) const;

    friend bool operator==(const MarchTest&, const MarchTest&) = default;

private:
    std::vector<MarchElement> elements_;
};

/// Well-formedness from the op sequence alone: every read expects the
/// value last written, and a write comes before the first read. On a
/// fault-free memory of n >= 1 cells every cell sees exactly this
/// sequence whatever the address orders and ⇕ choices, so this is
/// sim::is_well_formed for any memory_size >= 1 (which accepts every test
/// at memory_size <= 0, where no cell is read).
[[nodiscard]] bool is_well_formed(const MarchTest& test);

}  // namespace mtg::march
