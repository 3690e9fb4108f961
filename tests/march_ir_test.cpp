#include <gtest/gtest.h>

#include <sstream>

#include "march/library.hpp"
#include "march/march_test.hpp"
#include "march/parser.hpp"
#include "sim/march_runner.hpp"
#include "util/rng.hpp"

namespace mtg::march {
namespace {

/// A seeded random test: 1-6 elements of any address order, each of 1-4
/// ops drawn from r0, r1, w0, w1 and del. With `track` set, a read
/// expects the value last written three times in four, so well-formed
/// tests are common; otherwise every op is uniform.
MarchTest random_test(SplitMix64& rng, bool track) {
    MarchTest test;
    int stored = -1;
    const int elements = rng.range(1, 6);
    for (int e = 0; e < elements; ++e) {
        const auto order = static_cast<AddressOrder>(rng.range(0, 2));
        std::vector<MarchOp> ops;
        const int count = rng.range(1, 4);
        for (int i = 0; i < count; ++i) {
            const int pick = rng.range(0, 4);
            if (pick == 4) {
                ops.push_back(MarchOp::del());
            } else if (pick >= 2) {
                stored = rng.range(0, 1);
                ops.push_back(MarchOp::w(stored));
            } else if (track && stored >= 0 && rng.below(4) != 0) {
                ops.push_back(MarchOp::r(stored));
            } else {
                ops.push_back(MarchOp::r(rng.range(0, 1)));
            }
        }
        test.push_back(MarchElement(order, std::move(ops)));
    }
    return test;
}

/// The ostringstream renderer str() replaced, kept as its oracle.
std::string reference_str(const MarchTest& test, Notation n) {
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < test.size(); ++i) {
        if (i) os << "; ";
        const MarchElement& element = test[i];
        switch (element.order) {
            case AddressOrder::Ascending:
                os << (n == Notation::Unicode ? "⇑" : "^");
                break;
            case AddressOrder::Descending:
                os << (n == Notation::Unicode ? "⇓" : "v");
                break;
            case AddressOrder::Any:
                os << (n == Notation::Unicode ? "⇕" : "~");
                break;
        }
        os << '(';
        for (std::size_t k = 0; k < element.ops.size(); ++k) {
            if (k) os << ',';
            os << element.ops[k].str();
        }
        os << ')';
    }
    os << '}';
    return os.str();
}

TEST(MarchOp, Printing) {
    EXPECT_EQ(MarchOp::r(0).str(), "r0");
    EXPECT_EQ(MarchOp::r(1).str(), "r1");
    EXPECT_EQ(MarchOp::w(0).str(), "w0");
    EXPECT_EQ(MarchOp::w(1).str(), "w1");
    EXPECT_EQ(MarchOp::del().str(), "del");
}

TEST(MarchElement, OpCountExcludesWait) {
    MarchElement e(AddressOrder::Any,
                   {MarchOp::w(0), MarchOp::del(), MarchOp::r(0)});
    EXPECT_EQ(e.op_count(), 2);
}

TEST(MarchElement, EmptyElementRejected) {
    EXPECT_THROW(MarchElement(AddressOrder::Any, std::vector<MarchOp>{}),
                 ContractViolation);
}

TEST(MarchTest, ComplexityIsTotalOpsPerCell) {
    MarchTest mats{{AddressOrder::Any, {MarchOp::w(0)}},
                   {AddressOrder::Any, {MarchOp::r(0), MarchOp::w(1)}},
                   {AddressOrder::Any, {MarchOp::r(1)}}};
    EXPECT_EQ(mats.complexity(), 4);
    EXPECT_EQ(mats.read_count(), 2);
    EXPECT_FALSE(mats.has_wait());
}

TEST(MarchTest, PrintAscii) {
    MarchTest test{{AddressOrder::Any, {MarchOp::w(0)}},
                   {AddressOrder::Ascending, {MarchOp::r(0), MarchOp::w(1)}},
                   {AddressOrder::Descending, {MarchOp::r(1), MarchOp::w(0)}}};
    EXPECT_EQ(test.str(), "{~(w0); ^(r0,w1); v(r1,w0)}");
}

TEST(MarchTest, PrintUnicodeArrows) {
    MarchTest test{{AddressOrder::Ascending, {MarchOp::r(0)}}};
    EXPECT_EQ(test.str(Notation::Unicode), "{⇑(r0)}");
}

TEST(MarchTest, PrintMatchesTheStreamRenderer) {
    std::vector<MarchTest> tests;
    for (const auto& named : known_march_tests()) tests.push_back(named.test);
    SplitMix64 rng(20261019);
    for (int trial = 0; trial < 500; ++trial)
        tests.push_back(random_test(rng, false));
    for (const MarchTest& test : tests)
        for (const Notation notation : {Notation::Ascii, Notation::Unicode}) {
            EXPECT_EQ(test.str(notation), reference_str(test, notation));
            for (const MarchElement& element : test.elements()) {
                const std::string braced =
                    reference_str(MarchTest{element}, notation);
                EXPECT_EQ(element.str(notation),
                          braced.substr(1, braced.size() - 2));
            }
        }
}

TEST(MarchTest, EraseOpDropsAnElementLeftEmpty) {
    MarchTest test = parse_march("{~(w0); ^(r0,w1); v(r1)}");
    test.erase_op(1, 0);
    EXPECT_EQ(test, parse_march("{~(w0); ^(w1); v(r1)}"));
    test.erase_op(1, 0);  // the element's last op
    EXPECT_EQ(test, parse_march("{~(w0); v(r1)}"));
    test.erase_op(1, 0);  // the last element's last op
    EXPECT_EQ(test, parse_march("{~(w0)}"));
    test.erase_op(0, 0);
    EXPECT_TRUE(test.empty());
    EXPECT_THROW(test.erase_op(0, 0), ContractViolation);
}

TEST(MarchTest, EraseElementKeepsTheOthersInOrder) {
    MarchTest test = parse_march("{~(w0); ^(r0,w1); v(r1,w0); ~(r0)}");
    test.erase_element(1);
    EXPECT_EQ(test, parse_march("{~(w0); v(r1,w0); ~(r0)}"));
    test.erase_element(2);
    EXPECT_EQ(test, parse_march("{~(w0); v(r1,w0)}"));
    test.erase_element(0);
    EXPECT_EQ(test, parse_march("{v(r1,w0)}"));
    EXPECT_THROW(test.erase_element(1), ContractViolation);
}

/// march::is_well_formed reads the op sequence; the scalar
/// sim::is_well_formed simulates a fault-free n-cell memory under every
/// ⇕ expansion. They must agree at every n >= 1, on every library test
/// and on seeded random tests of every address order, with delays.
TEST(MarchWellFormed, MatchesTheScalarSimulation) {
    std::vector<MarchTest> tests;
    for (const auto& named : known_march_tests()) tests.push_back(named.test);
    SplitMix64 rng(1019);
    for (int trial = 0; trial < 4000; ++trial)
        tests.push_back(random_test(rng, trial % 4 != 0));
    int well_formed = 0;
    for (const MarchTest& test : tests) {
        const bool fast = is_well_formed(test);
        for (const int n : {1, 2, 3, 8})
            ASSERT_EQ(fast, sim::is_well_formed(test, {.memory_size = n}))
                << test.str() << " at n = " << n;
        if (fast) ++well_formed;
    }
    // Both answers must be exercised in bulk.
    EXPECT_GT(well_formed, 400);
    EXPECT_LT(well_formed, static_cast<int>(tests.size()) - 400);
}

TEST(Opposite, FlipsConcreteOrders) {
    EXPECT_EQ(opposite(AddressOrder::Ascending), AddressOrder::Descending);
    EXPECT_EQ(opposite(AddressOrder::Descending), AddressOrder::Ascending);
    EXPECT_THROW(opposite(AddressOrder::Any), ContractViolation);
}

TEST(Parser, ParsesMatsPlus) {
    const MarchTest test = parse_march("{~(w0); ^(r0,w1); v(r1,w0)}");
    ASSERT_EQ(test.size(), 3u);
    EXPECT_EQ(test[0].order, AddressOrder::Any);
    EXPECT_EQ(test[1].order, AddressOrder::Ascending);
    EXPECT_EQ(test[2].order, AddressOrder::Descending);
    EXPECT_EQ(test.complexity(), 5);
}

TEST(Parser, AcceptsUnicodeArrows) {
    const MarchTest test = parse_march("{⇕(w0); ⇑(r0,w1); ⇓(r1)}");
    EXPECT_EQ(test.complexity(), 4);
    EXPECT_EQ(test[1].order, AddressOrder::Ascending);
}

TEST(Parser, AcceptsBracelessAndWhitespace) {
    const MarchTest test = parse_march("  ~( w0 ) ; ^(r0, w1) ");
    EXPECT_EQ(test.size(), 2u);
}

TEST(Parser, ParsesDelays) {
    const MarchTest test = parse_march("{~(w0); ~(del); ~(r0)}");
    EXPECT_TRUE(test.has_wait());
    EXPECT_EQ(test.complexity(), 2);  // del not counted
}

TEST(Parser, RoundTripsThroughPrint) {
    const char* sources[] = {
        "{~(w0); ^(r0,w1); v(r1,w0,r0)}",
        "{v(w0); ^(r0,w1,r1,w0); ^(r0,r0); ^(w1); v(r1,w0,r0,w1); v(r1,r1)}",
        "{~(w0); ~(del); ~(r0)}",
    };
    for (const char* source : sources) {
        const MarchTest parsed = parse_march(source);
        EXPECT_EQ(parse_march(parsed.str()), parsed) << source;
    }
}

TEST(Parser, RoundTripsEveryLibraryTestInBothNotations) {
    for (const auto& named : known_march_tests()) {
        for (const Notation notation : {Notation::Ascii, Notation::Unicode}) {
            const std::string text = named.test.str(notation);
            EXPECT_EQ(parse_march(text), named.test) << text;
        }
    }
}

TEST(Parser, RoundTripsRandomTestsIncludingDelays) {
    // The synthesis probe cache keys on rendered text, so
    // parse(render(t)) == t must hold for arbitrary op soups — including
    // Wait ops, whose unused value byte must not break equality.
    SplitMix64 rng(20260807);
    for (int trial = 0; trial < 500; ++trial) {
        MarchTest test;
        const int elements = rng.range(1, 6);
        for (int e = 0; e < elements; ++e) {
            const auto order = static_cast<AddressOrder>(rng.range(0, 2));
            std::vector<MarchOp> ops;
            const int count = rng.range(1, 6);
            for (int i = 0; i < count; ++i) {
                switch (rng.range(0, 4)) {
                    case 0: ops.push_back(MarchOp::r(0)); break;
                    case 1: ops.push_back(MarchOp::r(1)); break;
                    case 2: ops.push_back(MarchOp::w(0)); break;
                    case 3: ops.push_back(MarchOp::w(1)); break;
                    default:
                        // Adversarial Wait: a junk value byte a hand-built
                        // op could carry. Prints as plain "del".
                        ops.push_back(MarchOp{OpKind::Wait,
                                              static_cast<std::uint8_t>(
                                                  rng.range(0, 1))});
                        break;
                }
            }
            test.push_back(MarchElement(order, std::move(ops)));
        }
        for (const Notation notation : {Notation::Ascii, Notation::Unicode}) {
            const std::string text = test.str(notation);
            ASSERT_EQ(parse_march(text), test) << text;
        }
    }
}

TEST(MarchOp, WaitComparesEqualRegardlessOfValueByte) {
    // No simulator reads a Wait's value and "del" prints without one;
    // equality canonicalises it away so text identity == op identity.
    EXPECT_EQ((MarchOp{OpKind::Wait, 1}), MarchOp::del());
    EXPECT_NE((MarchOp{OpKind::Write, 1}), (MarchOp{OpKind::Write, 0}));
}

TEST(Parser, RejectsMalformedInput) {
    EXPECT_THROW((void)parse_march(""), ParseError);
    EXPECT_THROW((void)parse_march("{}"), ParseError);
    EXPECT_THROW((void)parse_march("{~()}"), ParseError);
    EXPECT_THROW((void)parse_march("{x(r0)}"), ParseError);
    EXPECT_THROW((void)parse_march("{~(r2)}"), ParseError);
    EXPECT_THROW((void)parse_march("{~(q0)}"), ParseError);
    EXPECT_THROW((void)parse_march("{~(r0) extra"), ParseError);
    EXPECT_FALSE(is_valid_march_syntax("{~(r0,)}"));
    EXPECT_TRUE(is_valid_march_syntax("{~(r0)}"));
}

TEST(Parser, ReportsErrorPosition) {
    try {
        (void)parse_march("{~(r2)}");
        FAIL();
    } catch (const ParseError& e) {
        EXPECT_GT(e.position(), 0u);
    }
}

}  // namespace
}  // namespace mtg::march
