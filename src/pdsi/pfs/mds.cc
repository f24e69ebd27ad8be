#include "pdsi/pfs/mds.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pdsi::pfs {

std::string NormalizePath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    throw std::invalid_argument("path must be absolute: " + std::string(path));
  }
  std::string out;
  out.reserve(path.size());
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    if (j > i) {
      out.push_back('/');
      out.append(path.substr(i, j - i));
    }
    i = j;
  }
  if (out.empty()) out.push_back('/');
  return out;
}

std::string ParentPath(const std::string& normalized) {
  const auto pos = normalized.find_last_of('/');
  if (pos == 0 || pos == std::string::npos) return "/";
  return normalized.substr(0, pos);
}

Mds::Mds(const PfsConfig& cfg, obs::Context* ctx, std::uint32_t shard,
         std::uint32_t num_shards)
    : cfg_(cfg),
      track_(obs::kMdsTrack + shard),
      next_file_id_(1 + shard),
      id_stride_(num_shards == 0 ? 1 : num_shards),
      ctx_(ctx) {
  root_.inode.is_dir = true;
  root_.children = std::make_unique<Children>();
  // Single-shard instruments keep the historical names (and so the
  // historical metric dumps); shards of a sharded namespace get
  // per-shard names and tracks.
  if (num_shards > 1) iprefix_ = "mds.s" + std::to_string(shard) + ".";
  if (ctx_ && ctx_->registry) {
    c_ops_ = &ctx_->registry->counter(iprefix_ + "ops");
    h_lat_ = &ctx_->registry->histogram(iprefix_ + "op_latency_s",
                                        obs::LatencyBuckets());
  }
  if (ctx_ && ctx_->tracer) {
    ctx_->tracer->track(track_, num_shards > 1
                                    ? "mds" + std::to_string(shard)
                                    : "mds");
  }
}

namespace {
/// True when the span should carry the client's causal request id: a
/// non-zero id and a live subscriber (unmonitored traces stay identical).
bool TagReq(const obs::Context* ctx, std::uint64_t req) {
  return req != 0 && ctx->tracer->has_subscribers();
}
}  // namespace

double Mds::charge(double now, std::uint64_t req) {
  const double done = service_.reserve(now, cfg_.mds_op_s);
  if (ctx_) {
    if (c_ops_) c_ops_->add(1);
    if (h_lat_) h_lat_->add(done - now);
    if (ctx_->tracer) {
      if (TagReq(ctx_, req)) {
        ctx_->tracer->complete(track_, "op", "mds", done - cfg_.mds_op_s,
                               done, {obs::Arg::Int("req", req)});
      } else {
        ctx_->tracer->complete(track_, "op", "mds", done - cfg_.mds_op_s,
                               done);
      }
    }
  }
  return done;
}

double Mds::charge_fraction(double now, double fraction, std::uint64_t req) {
  const double done = service_.reserve(now, cfg_.mds_op_s * fraction);
  if (ctx_) {
    if (c_ops_) c_ops_->add(1);
    if (h_lat_) h_lat_->add(done - now);
    if (ctx_->tracer) {
      if (TagReq(ctx_, req)) {
        ctx_->tracer->complete(track_, "group_op", "mds",
                               done - cfg_.mds_op_s * fraction, done,
                               {obs::Arg::Num("fraction", fraction),
                                obs::Arg::Int("req", req)});
      } else {
        ctx_->tracer->complete(track_, "group_op", "mds",
                               done - cfg_.mds_op_s * fraction, done,
                               {obs::Arg::Num("fraction", fraction)});
      }
    }
  }
  return done;
}

double Mds::publish(double now, double fraction, std::uint64_t req) {
  const double cost = cfg_.mds_op_s * fraction;
  const double done = service_.reserve(now, cost);
  if (ctx_) {
    if (ctx_->registry && c_publishes_ == nullptr) {
      c_publishes_ = &ctx_->registry->counter(iprefix_ + "publishes");
    }
    if (c_publishes_) c_publishes_->add(1);
    if (ctx_->tracer) {
      if (TagReq(ctx_, req)) {
        ctx_->tracer->complete(track_, "publish", "mds", done - cost,
                               done,
                               {obs::Arg::Num("fraction", fraction),
                                obs::Arg::Int("req", req)});
      } else {
        ctx_->tracer->complete(track_, "publish", "mds", done - cost,
                               done, {obs::Arg::Num("fraction", fraction)});
      }
    }
  }
  return done;
}

double Mds::charge_dir(const std::string& parent, double now,
                       std::uint64_t req) {
  const double done = dir_locks_[parent].reserve(now, cfg_.mds_dir_lock_s);
  if (ctx_ && ctx_->tracer) {
    // The span covers the lock hold; queueing shows as the gap from `now`.
    if (TagReq(ctx_, req)) {
      ctx_->tracer->complete(track_, "dir_lock", "mds",
                             done - cfg_.mds_dir_lock_s, done,
                             {obs::Arg::Int("req", req)});
    } else {
      ctx_->tracer->complete(track_, "dir_lock", "mds",
                             done - cfg_.mds_dir_lock_s, done);
    }
  }
  return done;
}

namespace {
void RequireAbsolute(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    throw std::invalid_argument("path must be absolute: " + std::string(path));
  }
}

/// Splits an absolute path into its parent's spelling and its last
/// non-empty component; the leaf is empty only for the root.
std::pair<std::string_view, std::string_view> SplitLeaf(std::string_view path) {
  RequireAbsolute(path);
  const std::size_t end = path.find_last_not_of('/');
  if (end == std::string_view::npos) return {path, {}};
  const std::size_t slash = path.rfind('/', end);
  return {path.substr(0, slash + 1), path.substr(slash + 1, end - slash)};
}
}  // namespace

const Mds::Dentry* Mds::find(std::string_view path) const {
  RequireAbsolute(path);
  const Dentry* d = &root_;
  for (std::size_t i = path.find_first_not_of('/'); i != std::string_view::npos;
       i = path.find_first_not_of('/', i)) {
    if (!d->children) return nullptr;
    const std::size_t j = std::min(path.find('/', i), path.size());
    const auto it = d->children->find(path.substr(i, j - i));
    if (it == d->children->end()) return nullptr;
    d = &it->second;
    i = j;
  }
  return d;
}

Mds::Dentry* Mds::find(std::string_view path) {
  return const_cast<Dentry*>(std::as_const(*this).find(path));
}

Result<Inode> Mds::make(std::string_view path, Inode node) {
  const auto [dir, leaf] = SplitLeaf(path);
  Dentry* parent = find(dir);
  if (leaf.empty() || (parent && parent->children &&
                        parent->children->contains(leaf))) {
    return Errc::exists;
  }
  if (!parent) return Errc::not_found;
  if (!parent->inode.is_dir) return Errc::not_dir;
  node.file_id = next_file_id_;
  next_file_id_ += id_stride_;
  Dentry& made = (*parent->children)[std::string(leaf)];
  made.inode = node;
  if (node.is_dir) made.children = std::make_unique<Children>();
  ++entries_;
  return node;
}

Result<Inode> Mds::create(const std::string& path, double mtime) {
  Inode node;
  node.mtime = mtime;
  return make(path, node);
}

Result<Inode> Mds::lookup(const std::string& path) const {
  const Dentry* d = find(path);
  if (!d) return Errc::not_found;
  return d->inode;
}

Status Mds::mkdir(const std::string& path) {
  Inode node;
  node.is_dir = true;
  return make(path, node).error();
}

bool Mds::has_children(const std::string& normalized) const {
  const Dentry* d = find(normalized);
  return d && !d->empty();
}

Status Mds::unlink(const std::string& path) {
  const auto [dir, leaf] = SplitLeaf(path);
  if (leaf.empty()) return Errc::not_supported;  // the root is not unlinkable
  Dentry* parent = find(dir);
  if (!parent || !parent->children) return Errc::not_found;
  const auto it = parent->children->find(leaf);
  if (it == parent->children->end()) return Errc::not_found;
  if (!it->second.empty()) return Errc::not_empty;
  parent->children->erase(it);
  --entries_;
  return Status::Ok();
}

Status Mds::rename(const std::string& from, const std::string& to,
                   double mtime) {
  const auto [from_dir, from_leaf] = SplitLeaf(from);
  const auto [to_dir, to_leaf] = SplitLeaf(to);
  if (from_leaf.empty()) return Errc::not_supported;  // the root directory
  Dentry* src = find(from_dir);
  if (!src || !src->children) return Errc::not_found;
  const auto it = src->children->find(from_leaf);
  if (it == src->children->end()) return Errc::not_found;
  if (it->second.inode.is_dir) return Errc::not_supported;  // file rename only
  Dentry* dst = find(to_dir);
  // POSIX: same-path rename is a no-op (one parent dentry per directory).
  if (dst == src && to_leaf == from_leaf) return Status::Ok();
  if (to_leaf.empty() ||
      (dst && dst->children && dst->children->contains(to_leaf))) {
    return Errc::exists;
  }
  if (!dst) return Errc::not_found;
  if (!dst->inode.is_dir) return Errc::not_dir;
  auto node = src->children->extract(it);
  node.key() = to_leaf;
  node.mapped().inode.mtime = mtime;
  dst->children->insert(std::move(node));
  return Status::Ok();
}

Result<std::vector<std::string>> Mds::readdir(const std::string& path) const {
  const Dentry* d = find(path);
  if (!d) return Errc::not_found;
  if (!d->inode.is_dir) return Errc::not_dir;
  std::vector<std::string> names;
  names.reserve(d->children->size());
  for (const auto& [name, child] : *d->children) names.push_back(name);
  return names;
}

void Mds::extend(const std::string& path, std::uint64_t new_size, double mtime) {
  Dentry* d = find(path);
  if (!d || d->inode.is_dir) return;
  if (new_size > d->inode.size) d->inode.size = new_size;
  d->inode.mtime = mtime;
}

void Mds::install(const std::string& normalized, const Inode& inode) {
  const auto [dir, leaf] = SplitLeaf(normalized);
  if (leaf.empty()) {
    root_.inode = inode;
    return;
  }
  Dentry* parent = find(dir);
  if (!parent || !parent->inode.is_dir) {
    throw std::logic_error("install without a parent directory: " + normalized);
  }
  const auto [it, added] = parent->children->try_emplace(std::string(leaf));
  it->second.inode = inode;
  if (inode.is_dir && !it->second.children) {
    it->second.children = std::make_unique<Children>();
  }
  if (added) ++entries_;
}

bool Mds::take(const std::string& normalized, Inode* out) {
  const auto [dir, leaf] = SplitLeaf(normalized);
  Dentry* parent = leaf.empty() ? nullptr : find(dir);
  if (!parent || !parent->children) return false;
  const auto it = parent->children->find(leaf);
  if (it == parent->children->end()) return false;
  if (!it->second.empty()) {
    throw std::logic_error("take of a non-empty directory: " + normalized);
  }
  if (out) *out = it->second.inode;
  parent->children->erase(it);
  --entries_;
  return true;
}

double Mds::migrate(double now, double cost, std::uint64_t partition,
                    std::uint64_t moved, std::uint64_t req) {
  const double done = service_.reserve(now, cost);
  if (ctx_ && ctx_->tracer) {
    if (TagReq(ctx_, req)) {
      ctx_->tracer->complete(track_, "split_migrate", "mds", done - cost,
                             done,
                             {obs::Arg::Int("partition", partition),
                              obs::Arg::Int("moved", moved),
                              obs::Arg::Int("req", req)});
    } else {
      ctx_->tracer->complete(track_, "split_migrate", "mds", done - cost,
                             done,
                             {obs::Arg::Int("partition", partition),
                              obs::Arg::Int("moved", moved)});
    }
  }
  return done;
}

}  // namespace pdsi::pfs
