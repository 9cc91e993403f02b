#include "shard/sharded_kv_client.h"

#include <atomic>
#include <thread>
#include <utility>

#include "common/check.h"

namespace faust::shard {

ShardedKvClient::ShardedKvClient(ShardedCluster& deployment, ClientId id, kv::KvTuning tuning)
    : deployment_(deployment), id_(id) {
  const std::size_t s_count = deployment_.shards();
  cache_.resize(s_count);
  kv_.reserve(s_count);
  pending_.resize(s_count);
  chained_on_fail_.resize(s_count);
  for (std::size_t s = 0; s < s_count; ++s) {
    kv_.push_back(std::make_unique<kv::KvClient>(deployment_.shard(s).client(id_), tuning));
  }
  // D8: wire the per-shard edge-cache hop. Construction attaches to the
  // shard's network, which (like the fail-hook swap below) may only be
  // touched from the shard's own thread; a stopped runtime simply leaves
  // the shard uncached.
  for (std::size_t s = 0; s < s_count; ++s) {
    Cluster& shard = deployment_.shard(s);
    if (!shard.cache_options().enabled) continue;
    const bool made = dispatch_sync(s, [this, s, &shard] {
      cache_[s] = std::make_unique<cache::CacheClient>(
          id_, cache::kCacheNodeId, shard.n(), shard.sigs(),
          shard.client(id_).config().data_digest, shard.transport(), deployment_.shard_exec(s),
          shard.cache_options().lookup_timeout);
    });
    if (made) kv_[s]->attach_cache(cache_[s].get());
  }
  // Surface each shard's fail_i through the sharded client, preserving
  // any handler the harness installed before us, and flush the ops the
  // halted FaustClient would otherwise leave dangling. on_fail runs
  // first, so a caller woken by a settled op already sees the failure
  // reported. The handler swap
  // mutates FaustClient state, so it runs on the shard's own thread; if
  // a shard's runtime is already stopped the swap never happens and the
  // destructor must not "restore" anything there.
  hooked_.assign(s_count, false);
  for (std::size_t s = 0; s < s_count; ++s) {
    hooked_[s] = dispatch_sync(s, [this, s] {
      FaustClient& f = deployment_.shard(s).client(id_);
      chained_on_fail_[s] = f.on_fail;
      auto prev = f.on_fail;
      f.on_fail = [this, s, prev = std::move(prev)](FailureReason reason) {
        if (prev) prev(reason);
        if (on_fail) on_fail(s, reason);
        settle_failed_shard(s);
      };
    });
  }
}

ShardedKvClient::~ShardedKvClient() {
  // Settle whatever is still in flight: copies of each op's completion
  // lambda remain queued inside the deployment's callback chains and
  // capture `this`. Firing the abort path flips the ticket's fired flag,
  // so a delivery arriving after destruction returns before touching the
  // dead object (the shared flag outlives us by value capture). By the
  // destructor contract the deployment is quiescent (threaded: stopped),
  // so touching the shards inline is safe here.
  for (std::size_t s = 0; s < kv_.size(); ++s) settle_failed_shard(s);
  // Detaching the cache hop and restoring the fail hook both mutate
  // state a live shard runtime reads (message delivery walks the
  // network's node map; fail_i reads the handler), so — exactly like
  // their installation above — they run on the shard's own thread, and
  // only fall back inline once that runtime is stopped.
  for (std::size_t s = 0; s < cache_.size(); ++s) {
    if (cache_[s] == nullptr) continue;
    if (!dispatch_sync(s, [this, s] { cache_[s].reset(); })) cache_[s].reset();
  }
  for (std::size_t s = 0; s < kv_.size(); ++s) {
    if (!hooked_[s]) continue;
    const auto restore = [this, s] {
      deployment_.shard(s).client(id_).on_fail = std::move(chained_on_fail_[s]);
    };
    if (!dispatch_sync(s, restore)) restore();
  }
}

bool ShardedKvClient::dispatch(std::size_t s, std::function<void()> body) {
  if (deployment_.threaded()) {
    return deployment_.shard_exec(s).post(std::move(body)) != 0;
  }
  body();
  return true;
}

bool ShardedKvClient::dispatch_sync(std::size_t s, const std::function<void()>& body) {
  if (!deployment_.threaded()) {
    body();
    return true;
  }
  return exec::post_sync(deployment_.shard_exec(s), body);
}

void ShardedKvClient::settle_failed_shard(std::size_t s) {
  // Detach first: an abort thunk may issue follow-up ops (which now take
  // the failed-shard fast path) or erase itself via the normal-completion
  // guard; neither may disturb this iteration — and the thunks relock
  // mu_, so it cannot be held while they run.
  std::map<std::uint64_t, std::function<void()>> aborts;
  {
    std::lock_guard lock(mu_);
    aborts = std::move(pending_[s]);
    pending_[s].clear();
  }
  for (auto& [id, abort] : aborts) abort();
}

void ShardedKvClient::put(std::string key, std::string value, PutHandler done) {
  const std::size_t s = home_shard(key);
  dispatch(s, [this, s, key = std::move(key), value = std::move(value),
               done = std::move(done)]() mutable {
    put_on_shard(s, std::move(key), std::move(value), std::move(done), /*is_erase=*/false);
  });
}

void ShardedKvClient::erase(const std::string& key, PutHandler done) {
  const std::size_t s = home_shard(key);
  dispatch(s, [this, s, key, done = std::move(done)]() mutable {
    put_on_shard(s, key, {}, std::move(done), /*is_erase=*/true);
  });
}

void ShardedKvClient::put_on_shard(std::size_t s, std::string key, std::string value,
                                   PutHandler done, bool is_erase) {
  kv::KvClient& kv = *kv_[s];
  if (kv.faust().failed()) {
    // fail_i halted the home shard: the write cannot take effect. Report
    // completion-with-timestamp-0 (the Cluster::write convention) rather
    // than leaving the caller waiting on a halted client.
    if (done) done(0);
    return;
  }
  if (is_erase && !kv.owns_key(key)) {
    // No-op erase: KvClient will not publish, so drawing a cross-shard
    // sequence ticket here would desynchronize the counters from the
    // single-deployment oracle (which does not bump either).
    if (done) done(0);
    return;
  }
  // The shard can also fail *mid-operation* (the halted FaustClient drops
  // its callbacks); the pending_ ticket lets settle_failed_shard complete
  // the op with t=0, and the fired flag keeps the two paths idempotent.
  //
  // The ticket's sequence number is drawn from the cross-shard counter up
  // front (oracle alignment, see header): every shard's counter trails
  // seq_, so advance_seq(my_seq - 1) makes this publication use exactly
  // my_seq — without holding mu_ across the encode/sign work below, which
  // is what the threaded mode parallelizes.
  std::uint64_t id, my_seq;
  auto fired = std::make_shared<bool>(false);
  PutHandler complete;
  {
    std::lock_guard lock(mu_);
    id = ++next_op_;
    my_seq = ++seq_;
    complete = [this, s, id, fired, done = std::move(done)](Timestamp t) {
      {
        std::lock_guard relock(mu_);
        if (*fired) return;
        *fired = true;
        pending_[s].erase(id);
      }
      if (done) done(t);
    };
    pending_[s].emplace(id, [complete] { complete(0); });
  }
  kv.advance_seq(my_seq - 1);
  if (is_erase) {
    kv.erase(key, std::move(complete));
  } else {
    kv.put(std::move(key), std::move(value), std::move(complete));
  }
}

void ShardedKvClient::get(const std::string& key, GetHandler done) {
  const std::size_t s = home_shard(key);
  dispatch(s, [this, s, key, done = std::move(done)]() mutable {
    get_on_shard(s, key, std::move(done));
  });
}

void ShardedKvClient::get_on_shard(std::size_t s, const std::string& key, GetHandler done) {
  kv::KvClient& kv = *kv_[s];
  if (kv.faust().failed()) {
    ShardedGetResult r;
    r.shard = s;
    r.shard_failed = true;
    done(r);
    return;
  }
  std::uint64_t id;
  auto fired = std::make_shared<bool>(false);
  std::function<void(const ShardedGetResult&)> complete;
  {
    std::lock_guard lock(mu_);
    id = ++next_op_;
    complete = [this, s, id, fired, done = std::move(done)](const ShardedGetResult& r) {
      {
        std::lock_guard relock(mu_);
        if (*fired) return;
        *fired = true;
        pending_[s].erase(id);
      }
      done(r);
    };
    pending_[s].emplace(id, [s, complete] {
      ShardedGetResult r;
      r.shard = s;
      r.shard_failed = true;
      complete(r);
    });
  }
  kv.get_ex(key, /*bypass_cache=*/false,
            [&kv, s, complete](std::optional<kv::KvEntry> e, Timestamp read_ts,
                               const kv::ReadOrigin& origin) {
              ShardedGetResult r;
              r.entry = std::move(e);
              r.shard = s;
              r.read_ts = read_ts;
              r.shard_failed = kv.faust().failed();
              r.cached = origin.cached;
              r.as_of = origin.as_of;
              complete(r);
            });
}

void ShardedKvClient::list(ListHandler done, bool bypass_cache) {
  auto fan = std::make_shared<Fan>();
  fan->result.complete = true;
  fan->done = std::move(done);
  // Every shard gets a slot before anything is dispatched, so an early
  // completion (a failed shard reports synchronously when inline) cannot
  // fire the handler while later shards are still being dispatched.
  fan->waiting = kv_.size();
  for (std::size_t s = 0; s < kv_.size(); ++s) {
    dispatch(s, [this, s, fan, bypass_cache] { list_on_shard(s, fan, bypass_cache); });
  }
}

void ShardedKvClient::list_on_shard(std::size_t s, const std::shared_ptr<Fan>& fan,
                                    bool bypass_cache) {
  std::uint64_t id = 0;
  {
    std::lock_guard lock(mu_);
    id = ++next_op_;
  }
  auto fired = std::make_shared<bool>(false);
  // ok=false: the shard failed — its keys are missing, but the healthy
  // shards' results must still be delivered. The fan state is shared
  // across shard threads, so it is folded under mu_; the user handler
  // fires outside the lock, from whichever shard finishes last.
  auto finish = [this, s, id, fired, fan](bool ok,
                                          const std::map<std::string, kv::KvEntry>* m) {
    ListHandler done_now;
    ShardedListResult result_now;
    {
      std::lock_guard lock(mu_);
      if (*fired) return;
      *fired = true;
      pending_[s].erase(id);
      if (ok) {
        for (const auto& [key, entry] : *m) {
          // Home-shard filter: a key can only leak into a foreign shard's
          // registers under a misbehaving party; it must not shadow (or
          // resurrect) the home shard's authoritative entry.
          if (home_shard(key) == s) fan->result.entries[key] = entry;
        }
      } else {
        fan->result.complete = false;
      }
      if (--fan->waiting == 0) {
        done_now = std::move(fan->done);
        result_now = std::move(fan->result);
      }
    }
    if (done_now) done_now(result_now);
  };
  kv::KvClient& kv = *kv_[s];
  if (kv.faust().failed()) {
    finish(false, nullptr);
    return;
  }
  {
    std::lock_guard lock(mu_);
    pending_[s].emplace(id, [finish] { finish(false, nullptr); });
  }
  kv.list_ex(bypass_cache, [finish](const std::map<std::string, kv::KvEntry>& m, Timestamp,
                                    const kv::ReadOrigin&) { finish(true, &m); });
}

std::uint64_t ShardedKvClient::draw_seq() {
  std::lock_guard lock(mu_);
  return ++seq_;
}

void ShardedKvClient::apply_on_shard(std::size_t s,
                                     std::vector<kv::KvClient::SeqChange> changes,
                                     MutateHandler done) {
  FAUST_CHECK(s < kv_.size());
  // Arm the pending ticket on the CALLER's thread, before dispatching:
  // if the shard's runtime stops (or its fail_i settles the shard) before
  // the body ever runs, destruction-settling still completes the op.
  std::uint64_t id;
  auto fired = std::make_shared<bool>(false);
  MutateHandler complete;
  {
    std::lock_guard lock(mu_);
    id = ++next_op_;
    complete = [this, s, id, fired, done = std::move(done)](Timestamp t, bool failed) {
      {
        std::lock_guard relock(mu_);
        if (*fired) return;
        *fired = true;
        pending_[s].erase(id);
      }
      if (done) done(t, failed);
    };
    pending_[s].emplace(id, [complete] { complete(0, /*failed=*/true); });
  }
  if (!dispatch(s, [this, s, changes = std::move(changes), complete]() mutable {
        mutate_on_shard(s, std::move(changes), std::move(complete));
      })) {
    complete(0, /*failed=*/true);  // runtime stopped: the body never runs
  }
}

void ShardedKvClient::mutate_on_shard(std::size_t s,
                                      std::vector<kv::KvClient::SeqChange> changes,
                                      MutateHandler complete) {
  kv::KvClient& kv = *kv_[s];
  if (kv.faust().failed()) {
    complete(0, /*failed=*/true);
    return;
  }
  kv.apply_with_seqs(changes, [complete](Timestamp t) { complete(t, /*failed=*/false); });
}

void ShardedKvClient::snapshot_on_shard(std::size_t s, SnapshotHandler done) {
  FAUST_CHECK(s < kv_.size());
  // Same arm-before-dispatch discipline as apply_on_shard.
  std::uint64_t id;
  auto fired = std::make_shared<bool>(false);
  SnapshotHandler complete;
  {
    std::lock_guard lock(mu_);
    id = ++next_op_;
    complete = [this, s, id, fired, done = std::move(done)](
                   const kv::MergedView* m, Timestamp ts, const kv::ReadOrigin& origin) {
      {
        std::lock_guard relock(mu_);
        if (*fired) return;
        *fired = true;
        pending_[s].erase(id);
      }
      if (done) done(m, ts, origin);
    };
    pending_[s].emplace(id, [complete] { complete(nullptr, 0, kv::ReadOrigin{}); });
  }
  if (!dispatch(s, [this, s, complete]() mutable {
        snapshot_shard(s, std::move(complete));
      })) {
    complete(nullptr, 0, kv::ReadOrigin{});  // runtime stopped: the body never runs
  }
}

void ShardedKvClient::snapshot_shard(std::size_t s, SnapshotHandler complete) {
  kv::KvClient& kv = *kv_[s];
  if (kv.faust().failed()) {
    complete(nullptr, 0, kv::ReadOrigin{});
    return;
  }
  kv.snapshot(/*bypass_cache=*/false,
              [complete](const kv::MergedView& view, Timestamp ts,
                         const kv::ReadOrigin& origin) { complete(&view, ts, origin); });
}

void ShardedKvClient::snapshot_degraded_on_shard(std::size_t s, SnapshotHandler done) {
  FAUST_CHECK(s < kv_.size());
  // Same arm-before-dispatch discipline as snapshot_on_shard.
  std::uint64_t id;
  auto fired = std::make_shared<bool>(false);
  SnapshotHandler complete;
  {
    std::lock_guard lock(mu_);
    id = ++next_op_;
    complete = [this, s, id, fired, done = std::move(done)](
                   const kv::MergedView* m, Timestamp ts, const kv::ReadOrigin& origin) {
      {
        std::lock_guard relock(mu_);
        if (*fired) return;
        *fired = true;
        pending_[s].erase(id);
      }
      if (done) done(m, ts, origin);
    };
    pending_[s].emplace(id, [complete] { complete(nullptr, 0, kv::ReadOrigin{}); });
  }
  if (!dispatch(s, [this, s, complete]() mutable {
        snapshot_degraded_shard(s, std::move(complete));
      })) {
    complete(nullptr, 0, kv::ReadOrigin{});  // runtime stopped: the body never runs
  }
}

void ShardedKvClient::snapshot_degraded_shard(std::size_t s, SnapshotHandler complete) {
  // Deliberately no faust().failed() fast path: the degraded read never
  // touches the (possibly misbehaving, possibly unreachable) shard, and
  // verified-stale cache data is no less authentic after fail_i — it is
  // served flagged, or the whole snapshot settles null.
  kv_[s]->snapshot_degraded(std::move(complete));
}

bool ShardedKvClient::any_shard_failed() const {
  for (const auto& kv : kv_) {
    if (kv->faust().failed()) return true;
  }
  return false;
}

std::vector<std::size_t> ShardedKvClient::failed_shards() const {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < kv_.size(); ++s) {
    if (kv_[s]->faust().failed()) out.push_back(s);
  }
  return out;
}

bool ShardedKvClient::stable(const ShardedGetResult& r) const {
  if (r.shard_failed || r.read_ts == 0) return false;
  return shard_stable_ts(r.shard) >= r.read_ts;
}

Timestamp ShardedKvClient::shard_stable_ts(std::size_t s) const {
  FAUST_CHECK(s < kv_.size());
  return kv_[s]->faust().fully_stable_timestamp();
}

}  // namespace faust::shard
