// Packet filters: scope-limited capture (§III.A.2.a of the paper).
//
// "A good technique can identify records that only relate to a
// particular crime" — a warrant that authorizes capturing traffic
// between two endpoints on one service does not authorize vacuuming the
// link.  Filter is a small combinator language (host/port/protocol/
// size predicates, and/or/not) over packet headers; CaptureDevice
// applies it before retention, and the filter can be parsed from a
// warrant-scope string so the instrument itself carries the technical
// scope.
//
// A Filter is an immutable tree of shared nodes, so copying one never
// copies its operands.  parse() builds one node per flat `and`/`or`
// chain, so parsing is linear in the expression and matches() recurses
// only as deep as '(' and 'not' nest.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "netsim/packet.h"
#include "util/status.h"

namespace lexfor::capture {

class Filter {
 public:
  // Matches everything (an unscoped instrument).
  Filter();

  // --- atoms -----------------------------------------------------------
  static Filter host(NodeId node);        // src or dst equals node
  static Filter src(NodeId node);
  static Filter dst(NodeId node);
  static Filter port(std::uint16_t p);    // src or dst port
  static Filter dst_port(std::uint16_t p);
  static Filter protocol(netsim::Protocol proto);
  static Filter max_size(std::uint32_t bytes);  // payload_size <= bytes

  // Negation: "(not host 3)".
  [[nodiscard]] Filter operator!() const;

  // Evaluation.
  [[nodiscard]] bool matches(const netsim::PacketHeader& header) const;

  // Human-readable form, left-nested: "((host 3 and dstport 80) and
  // proto tcp)".
  [[nodiscard]] const std::string& str() const noexcept;

  // Parses a scope expression.  Grammar (whitespace-separated, with
  // parentheses):
  //   expr   := term ('or' term)*
  //   term   := factor ('and' factor)*
  //   factor := 'not' factor | '(' expr ')' | atom
  //   atom   := ('host'|'src'|'dst') NUM | ('port'|'dstport') NUM
  //           | 'proto' ('tcp'|'udp') | 'maxsize' NUM | 'any'
  // InvalidArgument for a NUM above 2^64 - 1, a port above 65535, a
  // maxsize above 2^32 - 1, and '(' and 'not' nested more than 64 deep
  // (counted together).
  static Result<Filter> parse(const std::string& expression);

 private:
  class Parser;
  struct Node;
  enum class Op : std::uint8_t { kAtom, kNot, kAnd, kOr };
  using Pred = std::function<bool(const netsim::PacketHeader&)>;

  Filter(Pred pred, std::string text);
  explicit Filter(Node node);
  // `op` (kAnd or kOr) over two or more operands, left to right; str()
  // is the left-nested form of applying the binary operator in turn.
  static Filter chain(Op op, std::vector<Filter> operands);

  std::shared_ptr<const Node> node_;
};

}  // namespace lexfor::capture
