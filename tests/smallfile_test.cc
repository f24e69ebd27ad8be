// PLFS small-file mode tests: name-log serialisation, put/get/list/remove
// semantics, multi-writer merge, overwrite resolution, and the metadata
// reduction it exists for.
#include <gtest/gtest.h>

#include <thread>

#include "pdsi/common/bytes.h"
#include "pdsi/plfs/smallfile.h"

namespace pdsi::plfs {
namespace {

TEST(NameRecords, SerializeRoundTrip) {
  std::vector<NameRecord> records;
  records.push_back({"alpha", 0, 100, 1});
  records.push_back({"beta.with.long.name", 100, 0, 2});
  records.push_back({"gone", 0, NameRecord::kTombstone, 3});
  const Bytes raw = SerializeNameRecords(records);
  const auto back = DeserializeNameRecords(raw);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].name, "alpha");
  EXPECT_EQ(back[1].offset, 100u);
  EXPECT_EQ(back[2].length, NameRecord::kTombstone);
}

TEST(NameRecords, TruncationDetected) {
  std::vector<NameRecord> records{{"abc", 0, 10, 1}};
  Bytes raw = SerializeNameRecords(records);
  raw.pop_back();
  EXPECT_THROW(DeserializeNameRecords(raw), std::invalid_argument);
}

TEST(SmallFile, PutGetRoundTrip) {
  auto backend = MakeMemBackend();
  WriteClock clock{1};
  {
    auto w = SmallFileWriter::Open(*backend, "/pack", 0, clock);
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 100; ++i) {
      const auto data = MakePattern(0, i * 1000, 64 + i);
      ASSERT_TRUE((*w)->put(std::string("f").append(std::to_string(i)), data).ok());
    }
    ASSERT_TRUE((*w)->close().ok());
  }
  auto r = SmallFileReader::Open(*backend, "/pack");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->list().size(), 100u);
  for (int i = 0; i < 100; ++i) {
    auto got = (*r)->get("f" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), 64u + i);
    EXPECT_EQ(FindPatternMismatch(0, i * 1000, *got), kNoMismatch);
  }
  EXPECT_EQ((*r)->get("missing").error(), Errc::not_found);
}

TEST(SmallFile, OnlyTwoBackendFilesPerWriter) {
  auto backend = MakeMemBackend();
  WriteClock clock{1};
  {
    auto w = SmallFileWriter::Open(*backend, "/pack", 7, clock);
    Bytes tiny(10);
    for (int i = 0; i < 1000; ++i) {
      (*w)->put(std::string("n").append(std::to_string(i)), tiny);
    }
    (*w)->close();
  }
  auto names = backend->readdir("/pack");
  ASSERT_TRUE(names.ok());
  // marker + sfdata.7 + sfnames.7
  EXPECT_EQ(names->size(), 3u);
}

TEST(SmallFile, MultipleWritersMerge) {
  auto backend = MakeMemBackend();
  WriteClock clock{1};
  std::vector<std::thread> threads;
  for (std::uint32_t wid = 0; wid < 4; ++wid) {
    threads.emplace_back([&, wid] {
      auto w = SmallFileWriter::Open(*backend, "/pack", wid, clock);
      ASSERT_TRUE(w.ok());
      for (int i = 0; i < 50; ++i) {
        const std::string name = std::string("w")
                                     .append(std::to_string(wid))
                                     .append("_")
                                     .append(std::to_string(i));
        (*w)->put(name, MakePattern(wid, i, 32));
      }
      (*w)->close();
    });
  }
  for (auto& t : threads) t.join();

  auto r = SmallFileReader::Open(*backend, "/pack");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->list().size(), 200u);
  auto got = (*r)->get("w2_49");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(FindPatternMismatch(2, 49, *got), kNoMismatch);
}

TEST(SmallFile, OverwriteNewestWins) {
  auto backend = MakeMemBackend();
  WriteClock clock{1};
  auto w0 = SmallFileWriter::Open(*backend, "/pack", 0, clock);
  auto w1 = SmallFileWriter::Open(*backend, "/pack", 1, clock);
  (*w0)->put("shared", MakePattern(0, 0, 50));
  (*w1)->put("shared", MakePattern(1, 0, 70));  // later sequence
  (*w0)->close();
  (*w1)->close();
  auto r = SmallFileReader::Open(*backend, "/pack");
  auto got = (*r)->get("shared");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 70u);
  EXPECT_EQ(FindPatternMismatch(1, 0, *got), kNoMismatch);
}

TEST(SmallFile, RemoveTombstones) {
  auto backend = MakeMemBackend();
  WriteClock clock{1};
  {
    auto w = SmallFileWriter::Open(*backend, "/pack", 0, clock);
    (*w)->put("keep", MakePattern(0, 0, 10));
    (*w)->put("drop", MakePattern(0, 0, 10));
    (*w)->remove("drop");
    (*w)->close();
  }
  auto r = SmallFileReader::Open(*backend, "/pack");
  EXPECT_EQ((*r)->list().size(), 1u);
  EXPECT_TRUE((*r)->get("keep").ok());
  EXPECT_EQ((*r)->get("drop").error(), Errc::not_found);
  EXPECT_EQ((*r)->size("drop").error(), Errc::not_found);
}

TEST(SmallFile, SyncMakesNamesVisible) {
  auto backend = MakeMemBackend();
  WriteClock clock{1};
  auto w = SmallFileWriter::Open(*backend, "/pack", 0, clock);
  (*w)->put("early", MakePattern(0, 0, 16));
  ASSERT_TRUE((*w)->sync().ok());
  auto r = SmallFileReader::Open(*backend, "/pack");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->get("early").ok());
  (*w)->close();
}

TEST(SmallFile, RejectsBadNames) {
  auto backend = MakeMemBackend();
  WriteClock clock{1};
  auto w = SmallFileWriter::Open(*backend, "/pack", 0, clock);
  Bytes d(4);
  EXPECT_EQ((*w)->put("", d).error(), Errc::invalid);
  EXPECT_EQ((*w)->put("a/b", d).error(), Errc::invalid);
  (*w)->close();
}

TEST(SmallFile, NotAContainer) {
  auto backend = MakeMemBackend();
  backend->mkdir("/plain");
  EXPECT_EQ(SmallFileReader::Open(*backend, "/plain").error(), Errc::invalid);
  EXPECT_FALSE(*IsSmallFileContainer(*backend, "/plain"));
}

}  // namespace
}  // namespace pdsi::plfs
