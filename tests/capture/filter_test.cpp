#include "capture/filter.h"

#include <gtest/gtest.h>

#include <string>

#include "capture/capture.h"

namespace lexfor::capture {
namespace {

netsim::PacketHeader header(std::uint64_t src, std::uint64_t dst,
                            std::uint16_t sport = 1000,
                            std::uint16_t dport = 80,
                            netsim::Protocol proto = netsim::Protocol::kTcp,
                            std::uint32_t size = 100) {
  netsim::PacketHeader h;
  h.src = NodeId{src};
  h.dst = NodeId{dst};
  h.src_port = sport;
  h.dst_port = dport;
  h.protocol = proto;
  h.payload_size = size;
  return h;
}

TEST(FilterTest, DefaultMatchesEverything) {
  const Filter f;
  EXPECT_TRUE(f.matches(header(1, 2)));
  EXPECT_EQ(f.str(), "any");
}

TEST(FilterTest, HostMatchesEitherDirection) {
  const Filter f = Filter::host(NodeId{5});
  EXPECT_TRUE(f.matches(header(5, 9)));
  EXPECT_TRUE(f.matches(header(9, 5)));
  EXPECT_FALSE(f.matches(header(1, 2)));
}

TEST(FilterTest, SrcDstAreDirectional) {
  EXPECT_TRUE(Filter::src(NodeId{3}).matches(header(3, 4)));
  EXPECT_FALSE(Filter::src(NodeId{3}).matches(header(4, 3)));
  EXPECT_TRUE(Filter::dst(NodeId{3}).matches(header(4, 3)));
  EXPECT_FALSE(Filter::dst(NodeId{3}).matches(header(3, 4)));
}

TEST(FilterTest, PortMatchesEitherEnd) {
  const Filter f = Filter::port(80);
  EXPECT_TRUE(f.matches(header(1, 2, 9999, 80)));
  EXPECT_TRUE(f.matches(header(1, 2, 80, 9999)));
  EXPECT_FALSE(f.matches(header(1, 2, 1, 2)));
  EXPECT_FALSE(Filter::dst_port(80).matches(header(1, 2, 80, 443)));
}

TEST(FilterTest, ProtocolAndSize) {
  EXPECT_TRUE(Filter::protocol(netsim::Protocol::kUdp)
                  .matches(header(1, 2, 1, 2, netsim::Protocol::kUdp)));
  EXPECT_FALSE(Filter::protocol(netsim::Protocol::kUdp)
                   .matches(header(1, 2, 1, 2, netsim::Protocol::kTcp)));
  EXPECT_TRUE(Filter::max_size(100).matches(header(1, 2, 1, 2,
                                                   netsim::Protocol::kTcp, 100)));
  EXPECT_FALSE(Filter::max_size(99).matches(header(1, 2, 1, 2,
                                                   netsim::Protocol::kTcp, 100)));
}

TEST(FilterTest, Combinators) {
  const Filter f = Filter::parse("src 1 and dstport 80").value();
  EXPECT_TRUE(f.matches(header(1, 2, 5, 80)));
  EXPECT_FALSE(f.matches(header(1, 2, 5, 443)));
  EXPECT_FALSE(f.matches(header(2, 1, 5, 80)));

  const Filter g = Filter::parse("host 1 or host 2").value();
  EXPECT_TRUE(g.matches(header(2, 9)));
  EXPECT_FALSE(g.matches(header(3, 9)));

  const Filter h = !Filter::protocol(netsim::Protocol::kTcp);
  EXPECT_TRUE(h.matches(header(1, 2, 1, 2, netsim::Protocol::kUdp)));
  EXPECT_FALSE(h.matches(header(1, 2, 1, 2, netsim::Protocol::kTcp)));
}

TEST(FilterParseTest, ParsesAtoms) {
  EXPECT_TRUE(Filter::parse("any").value().matches(header(1, 2)));
  EXPECT_TRUE(Filter::parse("host 5").value().matches(header(5, 2)));
  EXPECT_TRUE(Filter::parse("src 1").value().matches(header(1, 2)));
  EXPECT_TRUE(Filter::parse("dst 2").value().matches(header(1, 2)));
  EXPECT_TRUE(Filter::parse("port 80").value().matches(header(1, 2, 5, 80)));
  EXPECT_TRUE(Filter::parse("proto tcp").value().matches(header(1, 2)));
  EXPECT_TRUE(
      Filter::parse("maxsize 200").value().matches(header(1, 2)));
}

TEST(FilterParseTest, ParsesBooleanStructure) {
  const auto f = Filter::parse("src 1 and dstport 80").value();
  EXPECT_TRUE(f.matches(header(1, 2, 5, 80)));
  EXPECT_FALSE(f.matches(header(1, 2, 5, 443)));

  const auto g = Filter::parse("host 1 or host 2").value();
  EXPECT_TRUE(g.matches(header(2, 3)));

  const auto h = Filter::parse("not proto udp").value();
  EXPECT_TRUE(h.matches(header(1, 2)));
}

TEST(FilterParseTest, AndBindsTighterThanOr) {
  // "a or b and c" == "a or (b and c)".
  const auto f = Filter::parse("src 1 or src 2 and dstport 80").value();
  EXPECT_TRUE(f.matches(header(1, 9, 5, 443)));   // src 1 alone suffices
  EXPECT_TRUE(f.matches(header(2, 9, 5, 80)));    // src 2 needs port 80
  EXPECT_FALSE(f.matches(header(2, 9, 5, 443)));
}

TEST(FilterParseTest, ParenthesesOverridePrecedence) {
  const auto f = Filter::parse("(src 1 or src 2) and dstport 80").value();
  EXPECT_FALSE(f.matches(header(1, 9, 5, 443)));
  EXPECT_TRUE(f.matches(header(1, 9, 5, 80)));
}

TEST(FilterParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(Filter::parse("").ok());
  EXPECT_FALSE(Filter::parse("bogus 1").ok());
  EXPECT_FALSE(Filter::parse("host").ok());
  EXPECT_FALSE(Filter::parse("host xyz").ok());
  EXPECT_FALSE(Filter::parse("port 99999").ok());
  EXPECT_FALSE(Filter::parse("(host 1").ok());
  EXPECT_FALSE(Filter::parse("host 1 host 2").ok());
  EXPECT_FALSE(Filter::parse("proto icmp").ok());
}

TEST(FilterParseTest, IsCaseInsensitive) {
  EXPECT_TRUE(Filter::parse("HOST 5 AND Proto TCP").ok());
}

StatusCode parse_code(const std::string& scope) {
  return Filter::parse(scope).status().code();
}

// A digit string past 2^64 - 1 used to wrap ("port 2^64 + 1" parsed as
// "port 1"), and maxsize was narrowed to 32 bits the same way.
TEST(FilterParseTest, RejectsNumbersThatOverflow) {
  EXPECT_EQ(parse_code("port 18446744073709551617"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse_code("host 18446744073709551616"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse_code("maxsize 4294967297"), StatusCode::kInvalidArgument);
  EXPECT_EQ(parse_code("maxsize 4294967296"), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Filter::parse("host 18446744073709551615").ok());
}

// The overflow check is on the value, not on the number of digits.
TEST(FilterParseTest, LeadingZerosAreNotOverflow) {
  const auto port = Filter::parse("port 0000000000000000000000000080").value();
  EXPECT_TRUE(port.matches(header(1, 2, 1000, 80)));
  EXPECT_EQ(port.str(), "port 80");
  EXPECT_TRUE(Filter::parse("maxsize 000000000000000000004294967295").ok());
  EXPECT_EQ(parse_code("maxsize 000000000000000000004294967296"),
            StatusCode::kInvalidArgument);
}

TEST(FilterParseTest, BoundaryValuesStillParse) {
  const auto port = Filter::parse("port 65535").value();
  EXPECT_TRUE(port.matches(header(1, 2, 1000, 65535)));
  EXPECT_FALSE(port.matches(header(1, 2, 1000, 65534)));
  EXPECT_EQ(port.str(), "port 65535");

  const auto size = Filter::parse("maxsize 4294967295").value();
  EXPECT_TRUE(size.matches(
      header(1, 2, 1000, 80, netsim::Protocol::kTcp, 4294967295u)));
  EXPECT_EQ(size.str(), "maxsize 4294967295");
}

std::string nested(const std::string& open, std::size_t depth,
                   const std::string& inner, const std::string& close) {
  std::string out;
  for (std::size_t i = 0; i < depth; ++i) out += open;
  out += inner;
  for (std::size_t i = 0; i < depth; ++i) out += close;
  return out;
}

// 10,000 nested parentheses used to overflow the stack (SIGSEGV).
TEST(FilterParseTest, RejectsNestingPastTheBound) {
  EXPECT_EQ(parse_code(nested("(", 10'000, "host 1", ")")),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse_code(nested("not ", 10'000, "host 1", "")),
            StatusCode::kInvalidArgument);
  // '(' and 'not' count together: 33 of each is 66 levels.
  EXPECT_EQ(parse_code(nested("not (", 33, "host 1", ")")),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse_code(nested("(", 65, "host 1", ")")),
            StatusCode::kInvalidArgument);
}

TEST(FilterParseTest, SixtyFourDeepNestingParsesAndMatches) {
  const auto parens = Filter::parse(nested("(", 64, "host 1", ")")).value();
  EXPECT_TRUE(parens.matches(header(1, 2)));
  EXPECT_FALSE(parens.matches(header(3, 4)));

  // 64 negations cancel.
  const auto nots = Filter::parse(nested("not ", 64, "host 1", "")).value();
  EXPECT_TRUE(nots.matches(header(1, 2)));
  EXPECT_FALSE(nots.matches(header(3, 4)));

  // 32 negations, each around a parenthesized operand: 64 levels.
  const auto mixed =
      Filter::parse(nested("not (", 32, "src 1 and dstport 80", ")")).value();
  EXPECT_TRUE(mixed.matches(header(1, 2, 1000, 80)));
  EXPECT_FALSE(mixed.matches(header(1, 2, 1000, 81)));
}

// The bound is on how deep groups nest, not on how many there are:
// closing a group gives its level back.
TEST(FilterParseTest, SiblingGroupsDoNotAddUpTheirDepth) {
  std::string groups;
  for (int host = 1; host <= 5; ++host) {
    if (host > 1) groups += " or ";
    groups += nested("(", 64, "host " + std::to_string(host), ")");
  }
  const auto any_of = Filter::parse(groups).value();
  EXPECT_TRUE(any_of.matches(header(1, 2)));
  EXPECT_TRUE(any_of.matches(header(7, 5)));
  EXPECT_FALSE(any_of.matches(header(6, 7)));

  // A 64-deep 'not' chain, then a 64-deep group: the negations cancel.
  const auto both = Filter::parse(nested("not ", 64, "host 9", "") + " and " +
                                  nested("(", 64, "port 80", ")"))
                        .value();
  EXPECT_TRUE(both.matches(header(9, 2, 1000, 80)));
  EXPECT_FALSE(both.matches(header(9, 2, 1000, 81)));
  EXPECT_FALSE(both.matches(header(3, 2, 1000, 80)));
}

// str() renders each binary operator applied in turn, left-nested.
TEST(FilterParseTest, StrIsLeftNestedLikeTheOperators) {
  const auto str = [](const std::string& e) {
    return Filter::parse(e).value().str();
  };
  EXPECT_EQ(str("(host 1)"), "host 1");
  EXPECT_EQ(str("not host 1"), "(not host 1)");
  EXPECT_EQ(str("host 1 and host 2 and host 3"),
            "((host 1 and host 2) and host 3)");
  EXPECT_EQ(str("src 1 or src 2 and dstport 80"),
            "(src 1 or (src 2 and dstport 80))");
  EXPECT_EQ(str("host 1 or host 2 or host 3 and host 4 and host 5 or "
                "not not host 6"),
            "(((host 1 or host 2) or ((host 3 and host 4) and host 5)) or "
            "(not (not host 6)))");
  EXPECT_EQ(str("((host 1 and host 2) or (host 3 and host 4)) and "
                "(host 5 or host 6)"),
            "(((host 1 and host 2) or (host 3 and host 4)) and "
            "(host 5 or host 6))");
  // operator! builds the same text the parser does.
  EXPECT_EQ((!Filter::port(80)).str(), str("not port 80"));
}

// `terms` atoms joined by `joiner`, and the left-nested text str()
// renders for them.
struct Chain {
  std::string expression;
  std::string text;
};
Chain flat_chain(std::size_t terms, const std::string& joiner,
                 const std::string& atom_prefix, const std::string& open,
                 const std::string& close) {
  Chain c;
  c.text.assign(terms - 1, '(');
  for (std::size_t i = 1; i <= terms; ++i) {
    const std::string atom = atom_prefix + std::to_string(i);
    if (i > 1) {
      c.expression += ' ' + joiner + ' ';
      c.text += ' ' + joiner + ' ';
    }
    c.expression += atom;
    c.text += open + atom + close;
    if (i > 1) c.text += ')';
  }
  return c;
}

// A 100,000-term chain parses in one pass and matches without
// recursing once per term; every term still counts.
TEST(FilterParseTest, HundredThousandTermAndChainMatchesEveryTerm) {
  constexpr std::size_t kTerms = 100'000;
  const Chain c = flat_chain(kTerms, "and", "not host ", "(", ")");
  const auto f = Filter::parse(c.expression);
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f.value().str(), c.text);
  EXPECT_TRUE(f.value().matches(header(kTerms + 1, kTerms + 2)));
  EXPECT_FALSE(f.value().matches(header(1, kTerms + 1)));
  EXPECT_FALSE(f.value().matches(header(kTerms + 1, kTerms / 2)));
  EXPECT_FALSE(f.value().matches(header(kTerms + 1, kTerms)));
}

TEST(FilterParseTest, HundredThousandTermOrChainMatchesEveryTerm) {
  constexpr std::size_t kTerms = 100'000;
  const Chain c = flat_chain(kTerms, "or", "host ", "", "");
  const auto f = Filter::parse(c.expression);
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f.value().str(), c.text);
  EXPECT_FALSE(f.value().matches(header(kTerms + 1, kTerms + 2)));
  EXPECT_TRUE(f.value().matches(header(1, kTerms + 1)));
  EXPECT_TRUE(f.value().matches(header(kTerms + 1, kTerms / 2)));
  EXPECT_TRUE(f.value().matches(header(kTerms, kTerms + 1)));
}

TEST(FilterScopedCaptureTest, OutOfScopeTrafficNeverRetained) {
  // A warrant scoped to traffic between node 0 and node 2 on port 80:
  // the device observes everything at the tap but retains only in-scope.
  legal::LegalProcess p;
  p.id = ProcessId{1};
  p.kind = legal::ProcessKind::kWiretapOrder;
  p.issued_at = SimTime::zero();
  auto dev = CaptureDevice::create(CaptureMode::kFullContent,
                                   legal::GrantedAuthority{p},
                                   legal::ProcessKind::kWiretapOrder,
                                   NodeId{1}, "isp", SimTime::zero())
                 .value();
  dev.set_scope_filter(
      Filter::parse("(src 0 and dst 2 or src 2 and dst 0) and port 80")
          .value());

  netsim::Packet in_scope;
  in_scope.header = header(0, 2, 5000, 80);
  in_scope.payload = Bytes(50, 1);
  netsim::Packet out_of_scope;
  out_of_scope.header = header(0, 3, 5000, 80);  // wrong destination
  out_of_scope.payload = Bytes(50, 2);

  const netsim::TapEvent ev1{in_scope, LinkId{0}, NodeId{0}, NodeId{1},
                             SimTime::zero()};
  const netsim::TapEvent ev2{out_of_scope, LinkId{0}, NodeId{0}, NodeId{1},
                             SimTime::zero()};
  dev.on_traversal(ev1);
  dev.on_traversal(ev2);

  EXPECT_EQ(dev.records().size(), 1u);
  EXPECT_EQ(dev.stats().packets_out_of_scope, 1u);
  EXPECT_EQ(dev.records()[0].header.dst, NodeId{2});
}

}  // namespace
}  // namespace lexfor::capture
