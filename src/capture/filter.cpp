#include "capture/filter.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <vector>

namespace lexfor::capture {

struct Filter::Node {
  Op op = Op::kAtom;
  Pred atom;                     // kAtom
  std::vector<Filter> operands;  // kNot: one; kAnd, kOr: two or more
  std::string text;
};

Filter::Filter(Node node)
    : node_(std::make_shared<const Node>(std::move(node))) {}

Filter::Filter(Pred pred, std::string text)
    : Filter(Node{Op::kAtom, std::move(pred), {}, std::move(text)}) {}

Filter::Filter()
    : Filter([](const netsim::PacketHeader&) { return true; }, "any") {}

Filter Filter::host(NodeId node) {
  return Filter(
      [node](const netsim::PacketHeader& h) {
        return h.src == node || h.dst == node;
      },
      "host " + std::to_string(node.value()));
}

Filter Filter::src(NodeId node) {
  return Filter([node](const netsim::PacketHeader& h) { return h.src == node; },
                "src " + std::to_string(node.value()));
}

Filter Filter::dst(NodeId node) {
  return Filter([node](const netsim::PacketHeader& h) { return h.dst == node; },
                "dst " + std::to_string(node.value()));
}

Filter Filter::port(std::uint16_t p) {
  return Filter(
      [p](const netsim::PacketHeader& h) {
        return h.src_port == p || h.dst_port == p;
      },
      "port " + std::to_string(p));
}

Filter Filter::dst_port(std::uint16_t p) {
  return Filter(
      [p](const netsim::PacketHeader& h) { return h.dst_port == p; },
      "dstport " + std::to_string(p));
}

Filter Filter::protocol(netsim::Protocol proto) {
  return Filter(
      [proto](const netsim::PacketHeader& h) { return h.protocol == proto; },
      std::string("proto ") +
          (proto == netsim::Protocol::kTcp ? "tcp" : "udp"));
}

Filter Filter::max_size(std::uint32_t bytes) {
  return Filter(
      [bytes](const netsim::PacketHeader& h) { return h.payload_size <= bytes; },
      "maxsize " + std::to_string(bytes));
}

Filter Filter::chain(Op op, std::vector<Filter> operands) {
  const std::string_view joiner = op == Op::kAnd ? " and " : " or ";
  std::string text(operands.size() - 1, '(');
  text += operands.front().str();
  for (std::size_t i = 1; i < operands.size(); ++i) {
    text += joiner;
    text += operands[i].str();
    text += ')';
  }
  return Filter(Node{op, {}, std::move(operands), std::move(text)});
}

Filter Filter::operator!() const {
  return Filter(Node{Op::kNot, {}, {*this}, "(not " + str() + ")"});
}

const std::string& Filter::str() const noexcept { return node_->text; }

bool Filter::matches(const netsim::PacketHeader& header) const {
  const Node& n = *node_;
  const auto match = [&header](const Filter& f) { return f.matches(header); };
  switch (n.op) {
    case Op::kAtom: return n.atom(header);
    case Op::kNot: return !match(n.operands.front());
    case Op::kAnd:
      return std::all_of(n.operands.begin(), n.operands.end(), match);
    case Op::kOr:
      return std::any_of(n.operands.begin(), n.operands.end(), match);
  }
  return false;
}

namespace {

// How deep '(' and 'not' may nest, counted together.  The parser
// recurses once per level, so without a bound a long enough scope
// string overflows the stack.
constexpr std::size_t kMaxNesting = 64;

}  // namespace

// Recursive-descent parser over a token vector.  Each flat `and`/`or`
// chain becomes one node, so a chain costs one pass and one level.
class Filter::Parser {
 public:
  explicit Parser(std::vector<std::string> tokens)
      : tokens_(std::move(tokens)) {}

  Result<Filter> parse() {
    auto e = expr();
    if (!e.ok()) return e;
    if (pos_ != tokens_.size()) {
      return InvalidArgument("filter parse: trailing tokens after '" +
                             tokens_[pos_ - 1] + "'");
    }
    return e;
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= tokens_.size(); }
  [[nodiscard]] const std::string& peek() const { return tokens_[pos_]; }
  std::string take() { return tokens_[pos_++]; }

  Result<Filter> expr() { return chain_of(Op::kOr, "or", &Parser::term); }
  Result<Filter> term() {
    return chain_of(Op::kAnd, "and", &Parser::factor);
  }

  // operand (joiner operand)*
  Result<Filter> chain_of(Op op, std::string_view joiner,
                          Result<Filter> (Parser::*operand)()) {
    std::vector<Filter> operands;
    while (true) {
      auto next = (this->*operand)();
      if (!next.ok()) return next;
      operands.push_back(std::move(next).value());
      if (at_end() || peek() != joiner) break;
      take();
    }
    if (operands.size() == 1) return std::move(operands.front());
    return Filter::chain(op, std::move(operands));
  }

  Result<Filter> factor() {
    if (at_end()) return InvalidArgument("filter parse: unexpected end");
    if (peek() != "not" && peek() != "(") return atom();
    if (depth_ == kMaxNesting) {
      return InvalidArgument("filter parse: '(' and 'not' nest deeper than " +
                             std::to_string(kMaxNesting));
    }
    ++depth_;
    auto inner = take() == "not" ? negated() : parenthesized();
    --depth_;
    return inner;
  }

  Result<Filter> negated() {
    auto inner = factor();
    if (!inner.ok()) return inner;
    return !inner.value();
  }

  Result<Filter> parenthesized() {
    auto inner = expr();
    if (!inner.ok()) return inner;
    if (at_end() || peek() != ")") {
      return InvalidArgument("filter parse: missing ')'");
    }
    take();
    return inner;
  }

  Result<std::uint64_t> number() {
    if (at_end()) return InvalidArgument("filter parse: expected a number");
    const std::string tok = take();
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t v = 0;
    for (const char c : tok) {
      if (c < '0' || c > '9') {
        return InvalidArgument("filter parse: '" + tok + "' is not a number");
      }
      const auto digit = static_cast<std::uint64_t>(c - '0');
      if (v > (kMax - digit) / 10) {
        return InvalidArgument("filter parse: '" + tok +
                               "' exceeds 2^64 - 1");
      }
      v = v * 10 + digit;
    }
    return v;
  }

  Result<Filter> atom() {
    const std::string kw = take();
    if (kw == "any") return Filter{};
    if (kw == "host" || kw == "src" || kw == "dst") {
      auto n = number();
      if (!n.ok()) return n.status();
      const NodeId node{n.value()};
      if (kw == "host") return Filter::host(node);
      if (kw == "src") return Filter::src(node);
      return Filter::dst(node);
    }
    if (kw == "port" || kw == "dstport") {
      auto n = number();
      if (!n.ok()) return n.status();
      if (n.value() > 65535) {
        return InvalidArgument("filter parse: port out of range");
      }
      const auto p = static_cast<std::uint16_t>(n.value());
      return kw == "port" ? Filter::port(p) : Filter::dst_port(p);
    }
    if (kw == "proto") {
      if (at_end()) return InvalidArgument("filter parse: expected protocol");
      const std::string proto = take();
      if (proto == "tcp") return Filter::protocol(netsim::Protocol::kTcp);
      if (proto == "udp") return Filter::protocol(netsim::Protocol::kUdp);
      return InvalidArgument("filter parse: unknown protocol '" + proto + "'");
    }
    if (kw == "maxsize") {
      auto n = number();
      if (!n.ok()) return n.status();
      if (n.value() > std::numeric_limits<std::uint32_t>::max()) {
        return InvalidArgument("filter parse: maxsize out of range");
      }
      return Filter::max_size(static_cast<std::uint32_t>(n.value()));
    }
    return InvalidArgument("filter parse: unknown keyword '" + kw + "'");
  }

  std::vector<std::string> tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // '(' and 'not' currently open
};

namespace {

std::vector<std::string> tokenize(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == '(' || c == ')') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
      out.emplace_back(1, c);
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

Result<Filter> Filter::parse(const std::string& expression) {
  auto tokens = tokenize(expression);
  if (tokens.empty()) return InvalidArgument("filter parse: empty expression");
  return Parser{std::move(tokens)}.parse();
}

}  // namespace lexfor::capture
