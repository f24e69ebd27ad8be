// Differential fuzzing of the metadata namespace (the BbFuzz shadow-model
// pattern from property_test.cc, applied to pfs::ShardedMds).
//
// Seeded random sequences of create, mkdir, unlink, rename, lookup,
// readdir, extend and has_children run against the service and against a
// plain path-keyed std::map reference that spells out the POSIX rules the
// namespace promises. Every status, inode field and listing must agree.
// The paths are adversarial: "/a" beside "/a.x", "/a-b" and "/a/b" (the
// siblings that sort between a directory and its children), doubled and
// trailing slashes, deep paths, files used as parents, and relative paths
// that must throw. Cases cover 1, 2 and 8 shards and split thresholds
// from 4 (a split every few creates) to 2000 (none); a second suite drives
// the same operations through PfsClient in sync and pipelined rpc mode,
// with several clients whose cached GIGA+ bitmaps go stale.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "pdsi/common/rng.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"
#include "pdsi/pfs/mds.h"
#include "pdsi/pfs/sharded_mds.h"

namespace pdsi::pfs {
namespace {

// -- Reference namespace ------------------------------------------------

/// "/" + the non-empty components joined by '/'; written independently
/// of pfs::NormalizePath so the reference does not inherit its bugs.
std::string RefNormalize(const std::string& path) {
  std::string out;
  std::size_t i = 0;
  while (i < path.size()) {
    const std::size_t j = std::min(path.find('/', i), path.size());
    if (j > i) out += "/" + path.substr(i, j - i);
    i = j + 1;
  }
  return out.empty() ? "/" : out;
}

std::string RefParent(const std::string& p) {
  const std::size_t slash = p.rfind('/');
  return slash == 0 ? "/" : p.substr(0, slash);
}

/// The namespace as one ordered map from normalized path to inode.
class RefNamespace {
 public:
  RefNamespace() { map_["/"].is_dir = true; }

  const Inode* find(const std::string& p) const {
    auto it = map_.find(p);
    return it == map_.end() ? nullptr : &it->second;
  }

  bool has_children(const std::string& p) const {
    const std::string prefix = p == "/" ? "/" : p + "/";
    for (auto it = map_.lower_bound(prefix); it != map_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      if (it->first != p) return true;
    }
    return false;
  }

  /// The status create/mkdir must return for `p`.
  Errc make_status(const std::string& p) const {
    if (find(p)) return Errc::exists;
    const Inode* parent = find(RefParent(p));
    if (!parent) return Errc::not_found;
    return parent->is_dir ? Errc::ok : Errc::not_dir;
  }
  void insert(const std::string& p, const Inode& node) { map_[p] = node; }

  Errc unlink(const std::string& p) {
    if (p == "/") return Errc::not_supported;
    auto it = map_.find(p);
    if (it == map_.end()) return Errc::not_found;
    if (it->second.is_dir && has_children(p)) return Errc::not_empty;
    map_.erase(it);
    return Errc::ok;
  }

  Errc rename(const std::string& f, const std::string& t, double mtime) {
    auto it = map_.find(f);
    if (it == map_.end()) return Errc::not_found;
    if (it->second.is_dir) return Errc::not_supported;
    if (f == t) return Errc::ok;
    const Errc st = make_status(t);
    if (st != Errc::ok) return st;
    Inode node = it->second;
    node.mtime = mtime;
    map_.erase(it);
    map_[t] = node;
    return Errc::ok;
  }

  Result<std::vector<std::string>> readdir(const std::string& p) const {
    const Inode* d = find(p);
    if (!d) return Errc::not_found;
    if (!d->is_dir) return Errc::not_dir;
    const std::string prefix = p == "/" ? "/" : p + "/";
    std::vector<std::string> names;
    for (const auto& [path, node] : map_) {
      if (path == p || path.compare(0, prefix.size(), prefix) != 0) continue;
      const std::string rest = path.substr(prefix.size());
      if (rest.find('/') == std::string::npos) names.push_back(rest);
    }
    return names;
  }

  void extend(const std::string& p, std::uint64_t size, double mtime) {
    auto it = map_.find(p);
    if (it == map_.end() || it->second.is_dir) return;
    it->second.size = std::max(it->second.size, size);
    it->second.mtime = mtime;
  }

  const std::map<std::string, Inode>& entries() const { return map_; }
  std::vector<std::string> paths(bool dirs) const {
    std::vector<std::string> out;
    for (const auto& [p, node] : map_) {
      if (node.is_dir == dirs) out.push_back(p);
    }
    return out;
  }

 private:
  std::map<std::string, Inode> map_;
};

// -- Adversarial path generation ----------------------------------------

// '.' and '-' sort before '/', so "/a.x" and "/a-b" fall between "/a" and
// "/a/b" in a path-ordered map.
const char* const kLeaves[] = {"a", "a.x", "a-b", "b", "ab", "a0"};

/// Re-spells a normalized path with doubled and trailing slashes.
std::string Respell(Rng& rng, const std::string& p) {
  std::string out;
  for (char c : p) {
    out.push_back(c);
    if (c == '/' && rng.below(6) == 0) out.push_back('/');
  }
  if (rng.below(6) == 0) out.push_back('/');
  return out;
}

/// A path that usually extends an existing directory (so operations
/// mostly succeed and the tree grows deep), sometimes extends a file
/// (a file used as a parent), sometimes is a random walk through the
/// leaf alphabet, and sometimes names an existing entry.
std::string PickPath(Rng& rng, const RefNamespace& ref) {
  const std::string leaf = kLeaves[rng.below(std::size(kLeaves))];
  const double dice = rng.uniform();
  std::string p;
  if (dice < 0.55) {
    const auto dirs = ref.paths(true);
    const std::string& d = dirs[rng.below(dirs.size())];
    p = (d == "/" ? "" : d) + "/" + leaf;
  } else if (dice < 0.65) {
    const auto files = ref.paths(false);
    p = files.empty() ? "/" + leaf : files[rng.below(files.size())] + "/" + leaf;
  } else if (dice < 0.80) {
    const int depth = 1 + static_cast<int>(rng.below(rng.below(8) == 0 ? 12 : 4));
    for (int i = 0; i < depth; ++i) p += "/" + std::string(kLeaves[rng.below(std::size(kLeaves))]);
  } else {
    const auto& all = ref.entries();
    auto it = all.begin();
    std::advance(it, static_cast<long>(rng.below(all.size())));
    p = it->first;
  }
  return Respell(rng, p);
}

/// A path the namespace must reject with std::invalid_argument.
std::string RelativePath(Rng& rng) {
  switch (rng.below(3)) {
    case 0: return "";
    case 1: return kLeaves[rng.below(std::size(kLeaves))];
    default: return std::string(kLeaves[rng.below(std::size(kLeaves))]) + "/b";
  }
}

// -- Fuzz cases ---------------------------------------------------------

struct FuzzCase {
  std::uint64_t seed;
  std::uint32_t shards;
  std::uint32_t threshold;
  bool pipelined = false;  ///< client suite only
};

std::string CaseName(const FuzzCase& c) {
  return "s" + std::to_string(c.shards) + "_t" + std::to_string(c.threshold) +
         (c.pipelined ? "_pipe" : "") + "_seed" + std::to_string(c.seed);
}

void PrintTo(const FuzzCase& c, std::ostream* os) { *os << CaseName(c); }

PfsConfig FuzzConfig(const FuzzCase& c) {
  PfsConfig cfg = PfsConfig::PanFsLike(2);
  cfg.num_mds_shards = c.shards;
  cfg.mds_split_threshold = c.threshold;
  if (c.pipelined) {
    cfg.rpc_window = 16;
    cfg.rpc_batch = 4;
  }
  return cfg;
}

std::vector<FuzzCase> ServiceCases() {
  std::vector<FuzzCase> cases;
  std::uint64_t seed = 11;
  for (std::uint32_t shards : {1u, 2u, 8u}) {
    for (std::uint32_t threshold : {4u, 16u, 2000u}) {
      cases.push_back({seed, shards, threshold});
      cases.push_back({seed + 1, shards, threshold});
      seed += 10;
    }
  }
  return cases;
}

std::vector<FuzzCase> ClientCases() {
  std::vector<FuzzCase> cases;
  std::uint64_t seed = 501;
  for (bool pipelined : {false, true}) {
    for (std::uint32_t shards : {1u, 2u, 8u}) {
      cases.push_back({seed++, shards, shards == 1 ? 2000u : 4u, pipelined});
      cases.push_back({seed++, shards, 24, pipelined});
    }
  }
  return cases;
}

auto CaseParamName = [](const auto& info) { return CaseName(info.param); };

// -- Service-level fuzz -------------------------------------------------

class MdsFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(MdsFuzz, ShardedMdsMatchesReferenceUnderRandomOps) {
  const FuzzCase c = GetParam();
  const PfsConfig cfg = FuzzConfig(c);
  ShardedMds smds(cfg);
  RefNamespace ref;
  Rng rng(c.seed);
  std::map<std::string, std::uint64_t> ids{{"/", 0}};  // path -> file id
  std::set<std::uint64_t> minted{0};

  const auto expect_inode = [&](const std::string& np, const Result<Inode>& got,
                                const std::string& where) {
    const Inode* want = ref.find(np);
    ASSERT_EQ(got.ok(), want != nullptr) << where;
    if (!want) {
      EXPECT_EQ(got.error(), Errc::not_found) << where;
      return;
    }
    EXPECT_EQ(got->is_dir, want->is_dir) << where;
    EXPECT_EQ(got->size, want->size) << where;
    EXPECT_EQ(got->mtime, want->mtime) << where;
    EXPECT_EQ(got->file_id, ids.at(np)) << where;
  };
  const auto any_children = [&](const std::string& np) {
    for (std::uint32_t s = 0; s < smds.num_shards(); ++s) {
      if (smds.shard(s).has_children(np)) return true;
    }
    return false;
  };

  constexpr int kOps = 1500;
  for (int i = 0; i < kOps; ++i) {
    const double mtime = 1.0 + i;
    const std::string path = PickPath(rng, ref);
    const std::string np = RefNormalize(path);
    const std::string where =
        CaseName(c) + " op " + std::to_string(i) + " path '" + path + "'";
    const double dice = rng.uniform();
    if (dice < 0.25) {
      const Errc want = ref.make_status(np);
      auto r = smds.create(path, mtime);
      ASSERT_EQ(r.error(), want) << "create " << where;
      if (r.ok()) {
        ASSERT_TRUE(minted.insert(r->file_id).second) << "reused id " << where;
        ids[np] = r->file_id;
        Inode node;
        node.mtime = mtime;
        ref.insert(np, node);
      }
    } else if (dice < 0.37) {
      const Errc want = ref.make_status(np);
      ASSERT_EQ(smds.mkdir(path).error(), want) << "mkdir " << where;
      if (want == Errc::ok) {
        auto made = smds.lookup(np);
        ASSERT_TRUE(made.ok()) << where;
        ASSERT_TRUE(minted.insert(made->file_id).second) << "reused id " << where;
        ids[np] = made->file_id;
        Inode node;
        node.is_dir = true;
        ref.insert(np, node);
      }
    } else if (dice < 0.49) {
      const Errc want = ref.unlink(np);
      ASSERT_EQ(smds.unlink(path).error(), want) << "unlink " << where;
      if (want == Errc::ok) ids.erase(np);
    } else if (dice < 0.59) {
      const std::string to = PickPath(rng, ref);
      const std::string nt = RefNormalize(to);
      const Errc want = ref.rename(np, nt, mtime);
      ASSERT_EQ(smds.rename(path, to, mtime).error(), want)
          << "rename to '" << to << "' " << where;
      if (want == Errc::ok && np != nt) {
        ids[nt] = ids.at(np);
        ids.erase(np);
      }
    } else if (dice < 0.74) {
      expect_inode(np, smds.lookup(path), "lookup " + where);
    } else if (dice < 0.82) {
      const auto want = ref.readdir(np);
      const auto got = smds.readdir(path);
      ASSERT_EQ(got.error(), want.error()) << "readdir " << where;
      if (want.ok()) {
        EXPECT_EQ(*got, *want) << "readdir " << where;
      }
    } else if (dice < 0.90) {
      const std::uint64_t size = rng.below(1 << 20);
      smds.extend(path, size, mtime);
      ref.extend(np, size, mtime);
      expect_inode(np, smds.lookup(np), "extend " + where);
    } else if (dice < 0.96) {
      EXPECT_EQ(any_children(np), ref.has_children(np)) << "has_children " << where;
    } else {
      const std::string bad = RelativePath(rng);
      EXPECT_THROW(smds.lookup(bad), std::invalid_argument) << bad;
      EXPECT_THROW(smds.create(bad, mtime), std::invalid_argument) << bad;
      EXPECT_THROW(smds.mkdir(bad), std::invalid_argument) << bad;
      EXPECT_THROW(smds.unlink(bad), std::invalid_argument) << bad;
      EXPECT_THROW(smds.readdir(bad), std::invalid_argument) << bad;
      EXPECT_THROW(smds.rename(bad, path, mtime), std::invalid_argument) << bad;
      EXPECT_THROW(smds.rename(path, bad, mtime), std::invalid_argument) << bad;
    }
  }

  // Final sweep: every entry resolves with its fields, every directory
  // lists exactly its children, and the per-shard counts add up (files
  // live on one shard, directories on all of them).
  std::size_t files = 0;
  std::size_t dirs = 0;
  for (const auto& [p, node] : ref.entries()) {
    expect_inode(p, smds.lookup(p), "sweep " + p);
    if (node.is_dir) {
      ++dirs;
      const auto got = smds.readdir(p);
      ASSERT_TRUE(got.ok()) << p;
      EXPECT_EQ(*got, *ref.readdir(p)) << "sweep " << p;
      EXPECT_EQ(any_children(p), ref.has_children(p)) << "sweep " << p;
    } else {
      ++files;
    }
  }
  std::size_t entries = 0;
  for (std::uint32_t s = 0; s < smds.num_shards(); ++s) {
    entries += smds.shard(s).entry_count();
  }
  EXPECT_EQ(entries, files + dirs * smds.num_shards());
  if (smds.num_shards() > 1) {
    EXPECT_EQ(smds.total_files(), files);
    EXPECT_TRUE(smds.check_placement_invariant());
  }
  if (c.threshold <= 16 && c.shards > 1) {
    EXPECT_GT(smds.splits(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, MdsFuzz, ::testing::ValuesIn(ServiceCases()),
                         CaseParamName);

// -- Client-level fuzz ----------------------------------------------------

class MdsClientFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(MdsClientFuzz, ClientsMatchReferenceWithStaleBitmaps) {
  const FuzzCase c = GetParam();
  sim::VirtualScheduler sched(1);
  PfsCluster cluster(FuzzConfig(c), sched);
  // Three clients on one rank, each with its own cached bitmap: whichever
  // one did not drive the latest splits addresses stale shards and must
  // be corrected lazily.
  std::vector<std::unique_ptr<PfsClient>> clients;
  for (int k = 0; k < 3; ++k) {
    clients.push_back(std::make_unique<PfsClient>(cluster, 0));
  }
  ASSERT_EQ(clients[0]->pipelined(), c.pipelined);
  RefNamespace ref;
  Rng rng(c.seed);

  constexpr int kOps = 600;
  for (int i = 0; i < kOps; ++i) {
    PfsClient& client = *clients[rng.below(clients.size())];
    const std::string path = PickPath(rng, ref);
    const std::string np = RefNormalize(path);
    const std::string where =
        CaseName(c) + " op " + std::to_string(i) + " path '" + path + "'";
    const double dice = rng.uniform();
    if (dice < 0.30) {
      const Errc want = ref.make_status(np);
      auto fh = client.create(path);
      ASSERT_EQ(fh.error(), want) << "create " << where;
      if (fh.ok()) {
        ref.insert(np, Inode{});
        if (rng.below(2) == 0) {
          const std::vector<std::uint8_t> data(1 + rng.below(5000), 0x5a);
          const std::uint64_t off = rng.below(1 << 16);
          ASSERT_TRUE(client.write(*fh, off, data).ok()) << where;
          ref.extend(np, off + data.size(), 0.0);
        }
        ASSERT_TRUE(client.close(*fh).ok()) << where;
      }
    } else if (dice < 0.42) {
      const Errc want = ref.make_status(np);
      ASSERT_EQ(client.mkdir(path).error(), want) << "mkdir " << where;
      if (want == Errc::ok) {
        Inode node;
        node.is_dir = true;
        ref.insert(np, node);
      }
    } else if (dice < 0.54) {
      ASSERT_EQ(client.unlink(path).error(), ref.unlink(np)) << "unlink " << where;
    } else if (dice < 0.64) {
      const std::string to = PickPath(rng, ref);
      ASSERT_EQ(client.rename(path, to).error(),
                ref.rename(np, RefNormalize(to), 0.0))
          << "rename to '" << to << "' " << where;
    } else if (dice < 0.80) {
      const Inode* want = ref.find(np);
      auto st = client.stat(path);
      ASSERT_EQ(st.ok(), want != nullptr) << "stat " << where;
      if (want) {
        EXPECT_EQ(st->is_dir, want->is_dir) << "stat " << where;
        EXPECT_EQ(st->size, want->size) << "stat " << where;
      }
    } else if (dice < 0.90) {
      const Inode* want = ref.find(np);
      auto fh = client.open(path);
      const Errc expect =
          !want ? Errc::not_found : (want->is_dir ? Errc::is_dir : Errc::ok);
      ASSERT_EQ(fh.error(), expect) << "open " << where;
      if (fh.ok()) {
        ASSERT_TRUE(client.close(*fh).ok()) << where;
      }
    } else {
      const auto want = ref.readdir(np);
      const auto got = client.readdir(path);
      ASSERT_EQ(got.error(), want.error()) << "readdir " << where;
      if (want.ok()) {
        EXPECT_EQ(*got, *want) << "readdir " << where;
      }
    }
  }
  for (const auto& [p, node] : ref.entries()) {
    auto st = clients[0]->stat(p);
    ASSERT_TRUE(st.ok()) << p;
    EXPECT_EQ(st->size, node.size) << p;
  }
  if (cluster.smds().num_shards() > 1) {
    EXPECT_TRUE(cluster.smds().check_placement_invariant());
  }
  sched.finish(0);
}

INSTANTIATE_TEST_SUITE_P(Cases, MdsClientFuzz,
                         ::testing::ValuesIn(ClientCases()), CaseParamName);

}  // namespace
}  // namespace pdsi::pfs
