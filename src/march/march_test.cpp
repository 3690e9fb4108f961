#include "march/march_test.hpp"

namespace mtg::march {

namespace {

const char* op_text(const MarchOp& op) {
    switch (op.kind) {
        case OpKind::Read: return op.value ? "r1" : "r0";
        case OpKind::Write: return op.value ? "w1" : "w0";
        case OpKind::Wait: return "del";
    }
    return "?";
}

const char* order_text(AddressOrder o, Notation n) {
    if (n == Notation::Unicode) {
        switch (o) {
            case AddressOrder::Ascending: return "⇑";   // ⇑
            case AddressOrder::Descending: return "⇓";  // ⇓
            case AddressOrder::Any: return "⇕";         // ⇕
        }
    }
    switch (o) {
        case AddressOrder::Ascending: return "^";
        case AddressOrder::Descending: return "v";
        case AddressOrder::Any: return "~";
    }
    return "?";
}

void append_element(std::string& out, const MarchElement& element,
                    Notation n) {
    out += order_text(element.order, n);
    out += '(';
    for (std::size_t i = 0; i < element.ops.size(); ++i) {
        if (i) out += ',';
        out += op_text(element.ops[i]);
    }
    out += ')';
}

}  // namespace

std::string MarchOp::str() const { return op_text(*this); }

std::string MarchElement::str(Notation n) const {
    std::string out;
    append_element(out, *this, n);
    return out;
}

int MarchElement::op_count() const {
    int count = 0;
    for (const auto& op : ops)
        if (op.kind != OpKind::Wait) ++count;
    return count;
}

void MarchTest::erase_op(std::size_t e, std::size_t o) {
    MTG_EXPECTS(e < elements_.size() && o < elements_[e].ops.size());
    auto& ops = elements_[e].ops;
    ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(o));
    if (ops.empty()) erase_element(e);
}

void MarchTest::erase_element(std::size_t e) {
    MTG_EXPECTS(e < elements_.size());
    elements_.erase(elements_.begin() + static_cast<std::ptrdiff_t>(e));
}

int MarchTest::complexity() const {
    int total = 0;
    for (const auto& e : elements_) total += e.op_count();
    return total;
}

int MarchTest::read_count() const {
    int total = 0;
    for (const auto& e : elements_)
        for (const auto& op : e.ops)
            if (op.kind == OpKind::Read) ++total;
    return total;
}

bool MarchTest::has_wait() const {
    for (const auto& e : elements_)
        for (const auto& op : e.ops)
            if (op.kind == OpKind::Wait) return true;
    return false;
}

std::string MarchTest::str(Notation n) const {
    std::string out;
    out += '{';
    for (std::size_t i = 0; i < elements_.size(); ++i) {
        if (i) out += "; ";
        append_element(out, elements_[i], n);
    }
    out += '}';
    return out;
}

bool is_well_formed(const MarchTest& test) {
    int stored = -1;  // no write yet
    for (const MarchElement& element : test.elements())
        for (const MarchOp& op : element.ops) {
            if (op.kind == OpKind::Write)
                stored = op.value != 0 ? 1 : 0;
            else if (op.kind == OpKind::Read && stored != op.value)
                return false;
        }
    return true;
}

}  // namespace mtg::march
