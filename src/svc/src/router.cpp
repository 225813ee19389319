#include "rlc/svc/router.hpp"

namespace rlc::svc {

ShardRouter::ShardRouter(const RouterOptions& opts) {
  const std::size_t n = opts.shards > 0 ? opts.shards : 1;
  sessions_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SessionOptions sopts;
    sopts.threads = opts.threads_per_shard;
    sopts.cache_capacity = opts.cache_capacity;
    sessions_.push_back(std::make_unique<Session>(sopts));
  }
}

ShardRouter::~ShardRouter() = default;

std::size_t ShardRouter::threads() const {
  std::size_t total = 0;
  for (const auto& s : sessions_) total += s->threads();
  return total;
}

std::size_t ShardRouter::placement(std::uint64_t key_hash,
                                   std::size_t shards) {
  // Jump Consistent Hash (Lamping & Veach, 2014): O(log n), no table, and
  // growing the shard count moves only the minimal fraction of keys.
  if (shards <= 1) return 0;
  std::int64_t b = -1;
  std::int64_t j = 0;
  while (j < static_cast<std::int64_t>(shards)) {
    b = j;
    key_hash = key_hash * 2862933555777941757ULL + 1;
    j = static_cast<std::int64_t>(
        static_cast<double>(b + 1) *
        (static_cast<double>(std::int64_t{1} << 31) /
         static_cast<double>((key_hash >> 33) + 1)));
  }
  return static_cast<std::size_t>(b);
}

std::size_t ShardRouter::shard_of(const QueryRequest& req) const {
  return placement(req.cache_hash(), sessions_.size());
}

}  // namespace rlc::svc
