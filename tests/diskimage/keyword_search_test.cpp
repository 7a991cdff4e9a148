#include "diskimage/keyword_search.h"

#include <gtest/gtest.h>

namespace lexfor::diskimage {
namespace {

legal::GrantedAuthority warrant() {
  legal::LegalProcess p;
  p.id = ProcessId{5};
  p.kind = legal::ProcessKind::kSearchWarrant;
  p.issued_at = SimTime::zero();
  return legal::GrantedAuthority{p};
}

TEST(KeywordSearchTest, RefusesWithoutRequiredProcess) {
  DiskImage disk;
  (void)disk.write_file("/a", to_bytes("meth lab instructions"));
  KeywordSearcher searcher({"meth lab"});
  const auto r =
      searcher.search(disk, legal::GrantedAuthority{},
                      legal::ProcessKind::kSearchWarrant, "drive",
                      SimTime::zero());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
}

TEST(KeywordSearchTest, FindsKeywordInLiveFile) {
  DiskImage disk;
  (void)disk.write_file(
      "/docs/history.txt",
      to_bytes("searched: how to build a methamphetamine laboratory"));
  KeywordSearcher searcher({"methamphetamine"});
  const auto hits = searcher
                        .search(disk, warrant(),
                                legal::ProcessKind::kSearchWarrant, "drive",
                                SimTime::zero())
                        .value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].region, HitRegion::kLiveFile);
  EXPECT_EQ(hits[0].path, "/docs/history.txt");
  EXPECT_EQ(hits[0].offset, 25u);
  // Context window includes surrounding bytes.
  const std::string context(hits[0].context.begin(), hits[0].context.end());
  EXPECT_NE(context.find("build a meth"), std::string::npos);
}

TEST(KeywordSearchTest, FindsKeywordInDeletedFile) {
  DiskImage disk;
  (void)disk.write_file("/tmp/evidence.txt", to_bytes("the secret ledger"));
  ASSERT_TRUE(disk.delete_file("/tmp/evidence.txt").ok());
  KeywordSearcher searcher({"secret ledger"});
  const auto hits = searcher
                        .search(disk, warrant(),
                                legal::ProcessKind::kSearchWarrant, "drive",
                                SimTime::zero())
                        .value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].region, HitRegion::kDeletedFile);
}

TEST(KeywordSearchTest, FindsKeywordInSlackSpace) {
  DiskImage disk(512, /*zero_on_reuse=*/false);
  Bytes secret(400, ' ');
  const std::string msg = "wire the money to account 99";
  std::copy(msg.begin(), msg.end(), secret.begin() + 200);
  (void)disk.write_file("/secret", secret);
  ASSERT_TRUE(disk.delete_file("/secret").ok());
  (void)disk.write_file("/cover", Bytes(100, 'x'));  // reuses the extent

  KeywordSearcher searcher({"wire the money"});
  const auto hits = searcher
                        .search(disk, warrant(),
                                legal::ProcessKind::kSearchWarrant, "drive",
                                SimTime::zero())
                        .value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].region, HitRegion::kSlack);
  EXPECT_EQ(hits[0].path, "/cover");
}

TEST(KeywordSearchTest, MultipleKeywordsAndOccurrences) {
  DiskImage disk;
  (void)disk.write_file("/x", to_bytes("abc abc xyz"));
  KeywordSearcher searcher({"abc", "xyz"});
  const auto hits = searcher
                        .search(disk, warrant(),
                                legal::ProcessKind::kSearchWarrant, "drive",
                                SimTime::zero())
                        .value();
  EXPECT_EQ(hits.size(), 3u);
}

TEST(KeywordSearchTest, ScopePredicateLimitsThePaths) {
  // §III.A.2.a: search only records related to the crime.
  DiskImage disk;
  (void)disk.write_file("/business/fraud.xls", to_bytes("shell company"));
  (void)disk.write_file("/personal/diary.txt", to_bytes("shell company"));
  KeywordSearcher searcher({"shell company"});
  const auto hits =
      searcher
          .search(disk, warrant(), legal::ProcessKind::kSearchWarrant, "drive",
                  SimTime::zero(),
                  [](const std::string& path) {
                    return path.rfind("/business/", 0) == 0;
                  })
          .value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].path, "/business/fraud.xls");
}

TEST(KeywordSearchTest, NoProcessNeededWhenEngineExcuses) {
  DiskImage disk;
  (void)disk.write_file("/x", to_bytes("pattern"));
  KeywordSearcher searcher({"pattern"});
  // Scene-19 posture: data previously lawfully acquired.
  const auto hits = searcher
                        .search(disk, legal::GrantedAuthority{},
                                legal::ProcessKind::kNone, "database",
                                SimTime::zero())
                        .value();
  EXPECT_EQ(hits.size(), 1u);
}

TEST(KeywordSearchTest, EmptyAndOversizedKeywordsAreIgnored) {
  DiskImage disk;
  (void)disk.write_file("/x", to_bytes("tiny"));
  KeywordSearcher searcher({"", std::string(1000, 'q')});
  const auto hits = searcher
                        .search(disk, warrant(),
                                legal::ProcessKind::kSearchWarrant, "drive",
                                SimTime::zero())
                        .value();
  EXPECT_TRUE(hits.empty());
}

}  // namespace
}  // namespace lexfor::diskimage
