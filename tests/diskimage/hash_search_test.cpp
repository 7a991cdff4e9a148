#include "diskimage/hash_search.h"

#include <gtest/gtest.h>

#include "crypto/sha256.h"

namespace lexfor::diskimage {
namespace {

using legal::GrantedAuthority;
using legal::LegalProcess;
using legal::ProcessKind;

GrantedAuthority warrant() {
  LegalProcess p;
  p.id = ProcessId{3};
  p.kind = ProcessKind::kSearchWarrant;
  p.issued_at = SimTime::zero();
  return GrantedAuthority{p};
}

struct SearchFixture {
  DiskImage disk;
  Bytes contraband = to_bytes("known contraband image bytes");
  Bytes benign = to_bytes("family vacation photo");
  FileId contraband_id;
  FileId benign_id;

  SearchFixture() {
    contraband_id = disk.write_file("/pics/c.jpg", contraband);
    benign_id = disk.write_file("/pics/ok.jpg", benign);
  }

  HashSearcher searcher() const {
    return HashSearcher({crypto::Sha256::hex(contraband)});
  }
};

// Scene 18 (U.S. v. Crist): without a warrant the hash search refuses.
TEST(HashSearchTest, RefusesWithoutWarrant) {
  SearchFixture f;
  const auto r = f.searcher().search(f.disk, GrantedAuthority{},
                                     ProcessKind::kSearchWarrant,
                                     "suspect-drive", SimTime::zero());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
}

TEST(HashSearchTest, FindsKnownFileWithWarrant) {
  SearchFixture f;
  const auto r = f.searcher().search(f.disk, warrant(),
                                     ProcessKind::kSearchWarrant,
                                     "suspect-drive", SimTime::zero());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].path, "/pics/c.jpg");
  EXPECT_FALSE(r.value()[0].deleted);
}

// Scene 19 (State v. Sloane): previously lawfully acquired data needs
// nothing — callers pass required = kNone.
TEST(HashSearchTest, RunsFreelyWhenNoProcessRequired) {
  SearchFixture f;
  const auto r = f.searcher().search(f.disk, GrantedAuthority{},
                                     ProcessKind::kNone, "lawful-database",
                                     SimTime::zero());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 1u);
}

TEST(HashSearchTest, FindsDeletedButRecoverableFiles) {
  SearchFixture f;
  ASSERT_TRUE(f.disk.delete_file("/pics/c.jpg").ok());
  const auto r = f.searcher().search(f.disk, warrant(),
                                     ProcessKind::kSearchWarrant,
                                     "suspect-drive", SimTime::zero());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_TRUE(r.value()[0].deleted);
}

TEST(HashSearchTest, OverwrittenFilesAreGone) {
  SearchFixture f;
  ASSERT_TRUE(f.disk.delete_file("/pics/c.jpg").ok());
  // Overwrite the freed extent.
  (void)f.disk.write_file("/new", Bytes(f.contraband.size(), 0x00));
  const auto r = f.searcher().search(f.disk, warrant(),
                                     ProcessKind::kSearchWarrant,
                                     "suspect-drive", SimTime::zero());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(HashSearchTest, EmptyKnownSetMatchesNothing) {
  SearchFixture f;
  HashSearcher empty{std::unordered_set<std::string>{}};
  const auto r = empty.search(f.disk, warrant(), ProcessKind::kSearchWarrant,
                              "suspect-drive", SimTime::zero());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  EXPECT_EQ(empty.known_count(), 0u);
}

TEST(CarverTest, CarvesFilesByMagic) {
  DiskImage disk(512);
  Bytes jpeg = magic_jpeg();
  jpeg.resize(600, 0x11);  // spans two sectors
  Bytes pdf = magic_pdf();
  pdf.resize(300, 0x22);
  (void)disk.write_file("/a.jpg", jpeg);
  (void)disk.write_file("/b.pdf", pdf);

  Carver carver;
  const auto objects = carver.carve(disk);
  ASSERT_EQ(objects.size(), 2u);
  EXPECT_EQ(objects[0].type, "jpeg");
  EXPECT_EQ(objects[1].type, "pdf");
}

TEST(CarverTest, CarvesDeletedFiles) {
  DiskImage disk(512);
  Bytes png = magic_png();
  png.resize(400, 0x33);
  (void)disk.write_file("/gone.png", png);
  ASSERT_TRUE(disk.delete_file("/gone.png").ok());

  Carver carver;
  const auto objects = carver.carve(disk);
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_EQ(objects[0].type, "png");
  // The carved object's prefix matches the deleted content.
  ASSERT_GE(objects[0].data.size(), png.size());
  EXPECT_TRUE(std::equal(png.begin(), png.end(), objects[0].data.begin()));
}

TEST(CarverTest, IgnoresUnstructuredData) {
  DiskImage disk(512);
  (void)disk.write_file("/noise", Bytes(1000, 0x77));
  Carver carver;
  EXPECT_TRUE(carver.carve(disk).empty());
}

}  // namespace
}  // namespace lexfor::diskimage
