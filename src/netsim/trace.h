// Capture traces: a pcap-like container with deterministic binary
// serialization.
//
// Capture devices produce records; a Trace packages them with a
// CRC-protected binary encoding so they can be handed to the evidence
// module (hashed, custody-chained) and re-read later.  The format is
// versioned and self-describing enough for round-trips; it is not pcap
// on the wire, but plays pcap's role in the pipeline.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netsim/packet.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lexfor::netsim {

struct TraceRecord {
  SimTime at;
  PacketHeader header;
  std::optional<Bytes> payload;  // absent for header-only captures
};

class Trace {
 public:
  Trace() = default;

  void add(TraceRecord record) { records_.push_back(std::move(record)); }

  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  // Serializes to the versioned binary format (little-endian), with a
  // trailing CRC-32 over everything before it.
  [[nodiscard]] Bytes serialize() const;

  // Parses a serialized trace; verifies magic, version and CRC, and
  // accepts only what serialize() writes: a protocol byte of 6 or 17
  // and a payload flag of 0 or 1 (InvalidArgument otherwise).
  static Result<Trace> deserialize(const Bytes& data);

  // Total payload bytes retained across records.
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept;

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace lexfor::netsim
