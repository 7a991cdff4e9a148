// Known-file hash search and file carving over a disk image.
//
// Scene 18 of Table 1 (United States v. Crist): running a hash over a
// lawfully *held* drive is still a Fourth Amendment search, so the
// searcher takes a GrantedAuthority and the engine-determined
// requirement and refuses to run without them.  Scene 19 (State v.
// Sloane): mining data already lawfully acquired needs nothing — callers
// pass required = kNone in that case and the gate is open.

#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "diskimage/disk_image.h"
#include "legal/authority.h"
#include "util/sim_time.h"

namespace lexfor::diskimage {

struct HashHit {
  FileId file;
  std::string path;
  bool deleted = false;
  std::string sha256_hex;
};

// Known-file search (NSRL-style hash set matching).
class HashSearcher {
 public:
  // `known_sha256_hex` holds lowercase digests, as Sha256::hex spells
  // them.
  explicit HashSearcher(std::unordered_set<std::string> known_sha256_hex)
      : known_(std::move(known_sha256_hex)) {}

  // Hashes every file on the image — live and recoverable-deleted — and
  // reports matches against the known set.  The legal gate mirrors the
  // capture module: `required` comes from the compliance engine.
  [[nodiscard]] Result<std::vector<HashHit>> search(
      const DiskImage& image, const legal::GrantedAuthority& authority,
      legal::ProcessKind required, const std::string& location,
      SimTime now) const;

  // The number of known hashes loaded.
  [[nodiscard]] std::size_t known_count() const noexcept {
    return known_.size();
  }

 private:
  std::unordered_set<std::string> known_;
};

// Content carving: scans raw sectors for known magic signatures and
// extracts candidate objects, finding material the file table no longer
// references.
struct CarvedObject {
  std::size_t offset = 0;
  std::string type;  // "jpeg", "png", "pdf"
  Bytes data;
};

class Carver {
 public:
  // Scans sector starts for magics; an object extends until the next
  // sector that begins another magic or the end of data, capped at
  // `max_object_bytes`.
  [[nodiscard]] std::vector<CarvedObject> carve(
      const DiskImage& image, std::size_t max_object_bytes = 1 << 20) const;
};

// Magic signatures used by the carver; exposed for workload generators.
[[nodiscard]] Bytes magic_jpeg();
[[nodiscard]] Bytes magic_png();
[[nodiscard]] Bytes magic_pdf();

}  // namespace lexfor::diskimage
