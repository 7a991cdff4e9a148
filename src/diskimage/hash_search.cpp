#include "diskimage/hash_search.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace lexfor::diskimage {

Result<std::vector<HashHit>> HashSearcher::search(
    const DiskImage& image, const legal::GrantedAuthority& authority,
    legal::ProcessKind required, const std::string& location,
    SimTime now) const {
  // The legal gate: examining file contents is a content acquisition.
  const Status permitted =
      authority.permits(required, legal::DataKind::kContent, location, now);
  if (!permitted.ok()) return permitted;

  std::vector<HashHit> hits;
  for (const auto& f : image.files()) {
    Bytes content;
    if (!f.deleted) {
      auto r = image.read_file(f.id);
      if (!r.ok()) continue;
      content = std::move(r).value();
    } else {
      auto r = image.recover_deleted(f.id);
      if (!r.ok()) continue;  // overwritten: unrecoverable
      content = std::move(r).value();
    }
    const std::string digest = crypto::Sha256::hex(content);
    if (known_.count(digest) != 0) {
      hits.push_back(HashHit{f.id, f.path, f.deleted, digest});
    }
  }
  return hits;
}

Bytes magic_jpeg() { return Bytes{0xFF, 0xD8, 0xFF, 0xE0}; }
Bytes magic_png() { return Bytes{0x89, 0x50, 0x4E, 0x47}; }
Bytes magic_pdf() { return Bytes{0x25, 0x50, 0x44, 0x46}; }

namespace {

bool starts_with_magic(const Bytes& data, std::size_t offset,
                       const Bytes& magic) {
  if (offset + magic.size() > data.size()) return false;
  return std::equal(magic.begin(), magic.end(), data.begin() + static_cast<std::ptrdiff_t>(offset));
}

const char* magic_type(const Bytes& data, std::size_t offset) {
  if (starts_with_magic(data, offset, magic_jpeg())) return "jpeg";
  if (starts_with_magic(data, offset, magic_png())) return "png";
  if (starts_with_magic(data, offset, magic_pdf())) return "pdf";
  return nullptr;
}

}  // namespace

std::vector<CarvedObject> Carver::carve(const DiskImage& image,
                                        std::size_t max_object_bytes) const {
  std::vector<CarvedObject> out;
  const Bytes& raw = image.raw();
  const std::size_t sector = image.sector_size();

  for (std::size_t off = 0; off < raw.size(); off += sector) {
    const char* type = magic_type(raw, off);
    if (type == nullptr) continue;

    // Extend until the next sector that begins a different object or the
    // configured cap.
    std::size_t end = off + sector;
    while (end < raw.size() && end - off < max_object_bytes &&
           magic_type(raw, end) == nullptr) {
      // Stop at an all-zero sector (unwritten space).
      const bool all_zero =
          std::all_of(raw.begin() + static_cast<std::ptrdiff_t>(end),
                      raw.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(end + sector, raw.size())),
                      [](std::uint8_t b) { return b == 0; });
      if (all_zero) break;
      end += sector;
    }

    CarvedObject obj;
    obj.offset = off;
    obj.type = type;
    obj.data.assign(raw.begin() + static_cast<std::ptrdiff_t>(off),
                    raw.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(end, raw.size())));
    out.push_back(std::move(obj));
    // Continue scanning after this object.
    off = ((end + sector - 1) / sector) * sector - sector;
  }
  return out;
}

}  // namespace lexfor::diskimage
