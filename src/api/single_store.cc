// api::Store over ONE FAUST deployment: wraps a kv::KvClient (the legacy
// single-deployment engine) and adds the facade's uniform result,
// settling and event semantics. shard is always 0.
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "api/store.h"
#include "faust/cluster.h"

namespace faust::api {
namespace {

class SingleStore final : public Store {
 public:
  SingleStore(Cluster& cluster, ClientId id)
      : cluster_(cluster), faust_(cluster.client(id)), kv_(faust_) {
    if (cluster_.simulated()) {
      core_->mode = detail::StoreCore::Mode::kStep;
      core_->sched = &cluster_.sched();
    } else {
      core_->mode = detail::StoreCore::Mode::kBlock;
    }
    // Chain the fail-aware hooks (preserving anything the harness
    // installed) and translate them into facade events. The handler swap
    // mutates FaustClient state, so it runs on the executor thread; if
    // the runtime is already stopped the swap never happens and the
    // destructor must not "restore" anything.
    hooked_ = run_on_exec_sync([this] {
      chained_fail_ = faust_.on_fail;
      auto prev_fail = faust_.on_fail;
      faust_.on_fail = [this, prev_fail = std::move(prev_fail)](FailureReason reason) {
        if (prev_fail) prev_fail(reason);
        // The event first: a caller woken by a settled op sees it already.
        Event e;
        e.kind = Event::Kind::kShardFailed;
        e.shard = 0;
        e.reason = reason;
        emit(e);
        settle_all();
      };
      chained_stable_ = faust_.on_stable;
      auto prev_stable = faust_.on_stable;
      faust_.on_stable =
          [this, prev_stable = std::move(prev_stable)](const FaustClient::StabilityCut& w) {
            if (prev_stable) prev_stable(w);
            Event e;
            e.kind = Event::Kind::kStabilityAdvanced;
            e.shard = 0;
            e.stable_ts = faust_.fully_stable_timestamp();
            emit(e);
          };
    });
    if (cluster_.cache_options().enabled) {
      // net::Network::attach is not thread-safe, so the cache hop is
      // built on the executor thread; a stopped runtime simply leaves
      // this store uncached.
      const bool made = run_on_exec_sync([this] {
        cache_ = std::make_unique<cache::CacheClient>(
            faust_.id(), cache::kCacheNodeId, cluster_.n(), cluster_.sigs(),
            faust_.config().data_digest, cluster_.transport(), cluster_.exec(),
            cluster_.cache_options().lookup_timeout);
      });
      if (made) kv_.attach_cache(cache_.get());
    }
  }

  /// Settles whatever is still in flight (resolving its tickets with the
  /// failure outcome) and restores the hook chains. By the Store
  /// destructor contract the deployment is quiescent here, so touching
  /// the FaustClient inline is safe.
  ~SingleStore() override {
    begin_close();  // chains settle inline; no new engine work from here on
    settle_all();
    if (hooked_) {
      faust_.on_fail = std::move(chained_fail_);
      faust_.on_stable = std::move(chained_stable_);
    }
  }

  ClientId id() const override { return faust_.id(); }
  std::size_t shards() const override { return 1; }
  std::size_t home_shard(std::string_view) const override { return 0; }
  Timestamp stable_ts(std::size_t) const override { return faust_.fully_stable_timestamp(); }
  bool failed(std::size_t) const override { return faust_.failed(); }

 protected:
  std::uint64_t engine_next_seq() override { return ++seq_; }

  void engine_mutate(std::size_t, std::vector<kv::KvClient::SeqChange> changes,
                     MutateDone done) override {
    // Armed before the dispatch (and the failure check, which must read
    // FaustClient state on its own thread), so destruction-settling
    // reaches ops whose body never got to run.
    MutateDone complete = arm(std::move(done));
    if (!dispatch([this, changes = std::move(changes), complete]() mutable {
          if (faust_.failed()) {
            complete(0, /*failed=*/true);
            return;
          }
          kv_.apply_with_seqs(changes,
                              [complete](Timestamp t) { complete(t, /*failed=*/false); });
        })) {
      complete(0, /*failed=*/true);  // runtime stopped: the body never runs
    }
  }

  void engine_snapshot(std::size_t, SnapshotDone done) override {
    // Adapt the snapshot completion onto the mutate-shaped pending slot:
    // the abort path reports (0, failed) which maps to (nullptr, 0). The
    // view is only BORROWED through the slot — the engine's snapshot
    // callback runs `complete` synchronously, so the pointer parked in
    // `result` is alive exactly when the armed done reads it.
    auto result = std::make_shared<Parked>();
    MutateDone complete = arm_snapshot(result, std::move(done));
    if (!dispatch([this, result, complete]() mutable {
          if (faust_.failed()) {
            complete(0, /*failed=*/true);
            return;
          }
          kv_.snapshot(/*bypass_cache=*/false,
                       [result, complete](const kv::MergedView& view, Timestamp ts,
                                          const kv::ReadOrigin& origin) {
                         result->view = &view;
                         result->origin = origin;
                         complete(ts, /*failed=*/false);
                       });
        })) {
      complete(0, /*failed=*/true);  // runtime stopped: the body never runs
    }
  }

  void engine_degraded_snapshot(std::size_t, SnapshotDone done) override {
    // Same borrowed-pointer parking as engine_snapshot; the engine's
    // degraded path either delivers a fully cache-served view or null.
    auto result = std::make_shared<Parked>();
    MutateDone complete = arm_snapshot(result, std::move(done));
    if (!dispatch([this, result, complete]() mutable {
          kv_.snapshot_degraded([result, complete](const kv::MergedView* view, Timestamp ts,
                                                   const kv::ReadOrigin& origin) {
            if (view == nullptr) {
              complete(0, /*failed=*/true);
              return;
            }
            result->view = view;
            result->origin = origin;
            complete(ts, /*failed=*/false);
          });
        })) {
      complete(0, /*failed=*/true);  // runtime stopped: the body never runs
    }
  }

 private:
  /// A snapshot's borrowed view, parked between the engine callback and
  /// the armed completion that reads it.
  struct Parked {
    const kv::MergedView* view = nullptr;
    kv::ReadOrigin origin;
  };

  MutateDone arm_snapshot(const std::shared_ptr<Parked>& result, SnapshotDone done) {
    return arm([result, done = std::move(done)](Timestamp ts, bool failed) {
      done(failed ? nullptr : result->view, failed ? 0 : ts,
           failed ? kv::ReadOrigin{} : result->origin);
    });
  }

  /// Runs `body` in the deployment's execution context: inline when the
  /// caller drives a sim::Scheduler, post()ed when the cluster lives on a
  /// threaded runtime (FaustClient state is only touched by its thread).
  /// Returns false when a stopped runtime refused the post — the body
  /// will never run and the caller must settle the op itself.
  bool dispatch(std::function<void()> body) {
    if (cluster_.simulated()) {
      body();
      return true;
    }
    return cluster_.exec().post(std::move(body)) != 0;
  }

  bool run_on_exec_sync(const std::function<void()>& body) {
    if (cluster_.simulated()) {
      body();
      return true;
    }
    return exec::post_sync(cluster_.exec(), body);
  }

  /// Registers a pending slot for one in-flight engine op and returns the
  /// idempotent completion; settle_all() fires the abort path (t=0,
  /// failed=true) for whatever has not completed yet.
  MutateDone arm(MutateDone done) {
    auto fired = std::make_shared<bool>(false);
    MutateDone complete;
    std::lock_guard lock(mu_);
    const std::uint64_t op = ++next_op_;
    complete = [this, op, fired, done = std::move(done)](Timestamp t, bool failed) {
      {
        std::lock_guard relock(mu_);
        if (*fired) return;
        *fired = true;
        pending_.erase(op);
      }
      done(t, failed);
    };
    pending_.emplace(op, [complete] { complete(0, /*failed=*/true); });
    return complete;
  }

  void settle_all() {
    // Detach first: abort thunks relock mu_ and may issue follow-up work.
    std::map<std::uint64_t, std::function<void()>> aborts;
    {
      std::lock_guard lock(mu_);
      aborts = std::move(pending_);
      pending_.clear();
    }
    for (auto& [op, abort] : aborts) abort();
  }

  Cluster& cluster_;
  FaustClient& faust_;
  /// D8 edge-cache hop (null when the deployment has no cache tier).
  /// Declared before kv_ so the KvClient holding a raw pointer to it via
  /// attach_cache is destroyed first.
  std::unique_ptr<cache::CacheClient> cache_;
  kv::KvClient kv_;
  std::uint64_t seq_ = 0;  // plan-time ticket counter (issuing thread only)

  /// Guards the pending registry (shard threads vs caller in kBlock mode).
  std::mutex mu_;
  std::uint64_t next_op_ = 0;
  std::map<std::uint64_t, std::function<void()>> pending_;

  FaustClient::FailHandler chained_fail_;      // restored at destruction...
  FaustClient::StableHandler chained_stable_;  // ...
  bool hooked_ = false;  // ...but only if the ctor's hook swap actually ran
};

}  // namespace

std::unique_ptr<Store> open_store(Cluster& cluster, ClientId id) {
  return std::make_unique<SingleStore>(cluster, id);
}

}  // namespace faust::api
