#pragma once

/// \file router.hpp
/// ShardRouter — the front router of the scaled-out query service: N
/// Session shards (each with its own warm ThreadPool, Talbot scratch, and
/// LRU result cache), with query keys consistent-hashed onto shards.
///
/// Routing is by Jump Consistent Hash over QueryRequest::cache_hash(), so
///   * the same query key always lands on the same shard — its cache entry
///     and warm per-thread solver state are reused instead of duplicated
///     S times (a modulo router would also do this, but);
///   * growing S to S+1 remaps only ~1/(S+1) of the key space, so a
///     resized deployment keeps most of its warm caches.
///
/// The mapping is a pure function of (key hash, shard count): identical
/// across router instances, processes, and runs — pinned by
/// tests/svc/test_router.cpp.
///
/// The router only places and owns the shards: the event loop
/// (server.hpp) asks shard_of for a request's home and answers it on
/// shard(i).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rlc/svc/query.hpp"
#include "rlc/svc/session.hpp"

namespace rlc::svc {

struct RouterOptions {
  /// Number of Session shards (>= 1; 0 is promoted to 1).
  std::size_t shards = 1;
  /// Worker threads per shard pool; 0 picks exec::default_thread_count().
  std::size_t threads_per_shard = 0;
  /// Result-cache capacity PER SHARD in entries; 0 disables caching.
  std::size_t cache_capacity = 4096;
};

class ShardRouter {
 public:
  explicit ShardRouter(const RouterOptions& opts = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  std::size_t shards() const noexcept { return sessions_.size(); }

  /// Serving concurrency: sum of the shard pool sizes.
  std::size_t threads() const;

  /// The shard this request's cache key lands on, in [0, shards()).
  std::size_t shard_of(const QueryRequest& req) const;

  /// The raw placement function (Jump Consistent Hash).  Deterministic in
  /// (key_hash, shards) alone; exposed for the routing-stability tests.
  static std::size_t placement(std::uint64_t key_hash, std::size_t shards);

  Session& shard(std::size_t i) { return *sessions_[i]; }
  const Session& shard(std::size_t i) const { return *sessions_[i]; }

 private:
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace rlc::svc
