#include "pdsi/pfs/mds.h"

#include <stdexcept>

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
  Inode root;
  root.is_dir = true;
  namespace_.emplace("/", root);
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

Result<Inode> Mds::create(const std::string& path, double mtime) {
  const std::string p = NormalizePath(path);
  if (namespace_.count(p)) return Errc::exists;
  auto parent = namespace_.find(ParentPath(p));
  if (parent == namespace_.end()) return Errc::not_found;
  if (!parent->second.is_dir) return Errc::not_dir;
  Inode node;
  node.file_id = next_file_id_;
  next_file_id_ += id_stride_;
  node.mtime = mtime;
  namespace_.emplace(p, node);
  return node;
}

Result<Inode> Mds::lookup(const std::string& path) const {
  auto it = namespace_.find(NormalizePath(path));
  if (it == namespace_.end()) return Errc::not_found;
  return it->second;
}

Status Mds::mkdir(const std::string& path) {
  const std::string p = NormalizePath(path);
  if (namespace_.count(p)) return Errc::exists;
  auto parent = namespace_.find(ParentPath(p));
  if (parent == namespace_.end()) return Errc::not_found;
  if (!parent->second.is_dir) return Errc::not_dir;
  Inode node;
  node.file_id = next_file_id_;
  next_file_id_ += id_stride_;
  node.is_dir = true;
  namespace_.emplace(p, node);
  return Status::Ok();
}

bool Mds::has_children(const std::string& normalized) const {
  // Scan from the first key sorting after "<dir>/": the immediate map
  // successor of "/a" can be a sibling like "/a.x" ('.' < '/'), so the
  // probe must seek past every such sibling before testing the prefix.
  const std::string prefix =
      normalized == "/" ? "/" : normalized + "/";
  auto child = namespace_.lower_bound(prefix);
  if (child != namespace_.end() && child->first == normalized) ++child;
  return child != namespace_.end() &&
         child->first.compare(0, prefix.size(), prefix) == 0;
}

Status Mds::unlink(const std::string& path) {
  const std::string p = NormalizePath(path);
  if (p == "/") return Errc::not_supported;  // the root is not unlinkable
  auto it = namespace_.find(p);
  if (it == namespace_.end()) return Errc::not_found;
  if (it->second.is_dir && has_children(p)) return Errc::not_empty;
  namespace_.erase(it);
  return Status::Ok();
}

Status Mds::rename(const std::string& from, const std::string& to,
                   double mtime) {
  const std::string f = NormalizePath(from);
  const std::string t = NormalizePath(to);
  auto it = namespace_.find(f);
  if (it == namespace_.end()) return Errc::not_found;
  if (it->second.is_dir) return Errc::not_supported;  // file rename only
  if (f == t) return Status::Ok();  // POSIX: same-path rename is a no-op
  if (namespace_.count(t)) return Errc::exists;
  auto parent = namespace_.find(ParentPath(t));
  if (parent == namespace_.end()) return Errc::not_found;
  if (!parent->second.is_dir) return Errc::not_dir;
  Inode node = it->second;
  node.mtime = mtime;
  namespace_.erase(it);
  namespace_.emplace(t, node);
  return Status::Ok();
}

Result<std::vector<std::string>> Mds::readdir(const std::string& path) const {
  const std::string p = NormalizePath(path);
  auto it = namespace_.find(p);
  if (it == namespace_.end()) return Errc::not_found;
  if (!it->second.is_dir) return Errc::not_dir;
  std::vector<std::string> names;
  const std::string prefix = p == "/" ? "/" : p + "/";
  for (auto child = namespace_.upper_bound(prefix);
       child != namespace_.end() && child->first.compare(0, prefix.size(), prefix) == 0;
       ++child) {
    const std::string rest = child->first.substr(prefix.size());
    if (rest.find('/') == std::string::npos) names.push_back(rest);
  }
  return names;
}

void Mds::extend(const std::string& path, std::uint64_t new_size, double mtime) {
  auto it = namespace_.find(NormalizePath(path));
  if (it == namespace_.end() || it->second.is_dir) return;
  if (new_size > it->second.size) it->second.size = new_size;
  it->second.mtime = mtime;
}

void Mds::install(const std::string& normalized, const Inode& inode) {
  namespace_[normalized] = inode;
}

bool Mds::take(const std::string& normalized, Inode* out) {
  auto it = namespace_.find(normalized);
  if (it == namespace_.end()) return false;
  if (out) *out = it->second;
  namespace_.erase(it);
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
