// What both runners do alike: load the keyspace through api::Store, read
// the public counters of every layer around the timed phase and derive
// the per-layer ratios from them, follow each put until it is stable,
// report the end-to-end metrics, and judge the final listings against the
// model.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/store.h"
#include "bench.h"
#include "model.h"
#include "net/network.h"
#include "shard/sharded_cluster.h"
#include "stream.h"

namespace perfbench {

/// Resolves one apply() of writer `w`.
using ApplyFn = std::function<faust::api::BatchResult(int w, std::vector<faust::api::Op>)>;

/// Puts every key once, writer (k mod writers)+1, in batches of `batch`,
/// recording each put in the model. Returns the key + value bytes put.
std::uint64_t load_keys(Model& model, const StreamParams& params, std::uint64_t seed,
                        int writers, std::size_t batch, const ApplyFn& apply, Result& r);

/// The public counters of every layer of a deployment, summed over its
/// shards. In-process shards are read on their simulated Network, process
/// shards on their SocketTransport.
struct Counters {
  std::uint64_t steps = 0;  // deterministic scheduler steps
  std::uint64_t msgs = 0, bytes = 0;  // client↔server payload, both directions
  std::array<std::uint64_t, faust::net::Network::kTypeBuckets> tag_bytes{}, tag_msgs{};
  std::vector<std::uint64_t> submits;  // SUBMIT + SUBMIT_DELTA, per shard
  std::uint64_t wal_records = 0, wal_bytes = 0, snapshots = 0;
  std::uint64_t dummy = 0, probes = 0, versions = 0, vc_hits = 0, vc_misses = 0;
  std::uint64_t d_adv = 0, d_unchanged = 0, d_fallbacks = 0;
  std::uint64_t c_hits = 0, c_unchanged = 0, c_negative = 0, c_misses = 0;
  std::uint64_t c_expired = 0, c_evicted = 0, c_rejected = 0, c_arena = 0;
  std::uint64_t socket_bytes = 0, socket_bytes_out = 0, framing_bytes = 0;
  std::uint64_t frames_out = 0, reconnects = 0, tasks = 0;
};

/// Reads every counter of `sc` (client counters on each shard's own
/// thread when the deployment is threaded). `root` is the durability root,
/// empty for memory-only servers.
Counters read_counters(faust::shard::ShardedCluster& sc, const std::string& root);

/// Everything a timed phase accumulates.
struct Phase {
  Latencies lat;
  std::uint64_t ops = 0, puts = 0, gets = 0, batches = 0, failed = 0;
  std::uint64_t cached_gets = 0, stale = 0;
  std::vector<double> lag_ops, lag_ms;
  std::uint64_t never_stable = 0;
  double wall_s = 0, cpu_s = 0;
  Counters before, after;
};

/// The per-layer metrics both runners derive alike from the counters
/// around `ph`: shard skew, faust, ustor, crypto, net, sim, storage,
/// cache and sock counts, and the direct LogStore::append timing at the
/// run's mean record size. `user_bytes` is the key + value bytes of every
/// put, the key load included.
void report_counter_layers(const Phase& ph, const std::string& root, std::uint64_t user_bytes,
                           const Options& opt, Result& r);

/// Kills shard 0 and times its restart from disk (storage.recovery_ms and
/// storage.recovered_records).
void measure_recovery(faust::shard::ShardedCluster& sc, Result& r);

/// Sets up replica `index`, runs its timed phase for `seconds` (exactly
/// `ops` ops instead when nonzero), checks its outputs, and returns its
/// set-up seconds and its phase.
using ReplicaFn = std::function<std::pair<double, Phase>(int index, double seconds, std::uint64_t ops)>;

/// An untraced run: kReplicas replicas one after the other, each timed for
/// an equal share of opt.seconds (`same_ops`: the later ones run exactly
/// the ops the first one ran, which on a deterministic deployment is the
/// same work). The run's figures move with the machine's load from second
/// to second; the replica that spent the least CPU per op ran in the
/// quietest stretch, and its phase gives the end-to-end metrics. setup_s is
/// the median of the set-ups.
void run_replicas(const Options& opt, bool same_ops, const ReplicaFn& replica, Result& r);

/// Follows every completed put until it is first seen stable. Puts wait
/// per (client, shard), in completion order.
class StabilityLag {
 public:
  StabilityLag(int clients, std::size_t shards)
      : shards_(shards), q_(static_cast<std::size_t>(clients) * shards) {}

  /// When a put was first seen stable: on the runner's clock, and the ops
  /// completed by then.
  struct Seen {
    double ms;
    std::uint64_t completions;
  };

  /// `completions`: ops completed so far; `issued_ms`: the put's call
  /// time on the runner's clock.
  void add(int client, const faust::api::PutResult& put, std::uint64_t completions,
           double issued_ms) {
    q_[index(client, put.shard)].push_back({put, completions, issued_ms});
  }

  /// Moves every put for which `stable_at(client, put)` returns a Seen
  /// into `ph`'s lags.
  template <typename StableAt>
  void poll(StableAt stable_at, Phase& ph) {
    for (std::size_t i = 0; i < q_.size(); ++i) {
      const int client = static_cast<int>(i / shards_) + 1;
      while (!q_[i].empty()) {
        const Pending& p = q_[i].front();
        const std::optional<Seen> seen = stable_at(client, p.put);
        if (!seen) break;
        ph.lag_ops.push_back(
            static_cast<double>(seen->completions - std::min(seen->completions, p.completions)));
        ph.lag_ms.push_back(seen->ms - p.issued_ms);
        q_[i].pop_front();
      }
    }
  }

  /// Ends a phase: the puts still waiting count as never stable.
  void close(Phase& ph) {
    for (auto& q : q_) {
      ph.never_stable += q.size();
      q.clear();
    }
  }

 private:
  struct Pending {
    faust::api::PutResult put;
    std::uint64_t completions;
    double issued_ms;
  };
  std::size_t index(int client, std::size_t shard) const {
    return static_cast<std::size_t>(client - 1) * shards_ + shard;
  }
  std::size_t shards_;
  std::vector<std::deque<Pending>> q_;
};

/// The final check: lists through every client (a deterministic deployment
/// first runs a while, so that messages still in flight land: a writer's
/// push fill to the cache trails its put, and a list served from the cache
/// before it arrives is stale by design), stops a threaded deployment, and
/// fails the run if any fail_i fired or the listings do not all equal the
/// model.
void final_check(faust::shard::ShardedCluster& sc,
                 const std::vector<std::unique_ptr<faust::api::Store>>& stores,
                 const Model& model, Result& r);

/// `lists[i]` is the listing of client i+1: every listing must be complete,
/// all must agree, and they must equal the model's merged view.
void check_listings(const Model& model, const std::vector<faust::api::ListResult>& lists,
                    Result& r);

/// "E entries, B B per writer per shard" over the model's current state.
std::string partition_size(const Model& model, int writers, std::size_t shards);

/// Builds one deployment with `make()`, loads its keys and warms it up,
/// logging the three steps. Returns the set-up seconds on the
/// deployment's CPU clock, counted from `start_cpu_us` (read before
/// `make()`, on the same clock).
template <typename D, typename Make>
double set_up(std::unique_ptr<D>& d, int index, double start_cpu_us, Make make) {
  d = make();
  const double built = d->cpu_us();
  d->load();
  const double loaded = d->cpu_us();
  d->warm_up();
  const double warm = d->cpu_us();
  std::fprintf(stderr,
               "perfbench: set-up %d (CPU s): deploy %.2f, key load %.2f, warm-up %.2f\n", index,
               (built - start_cpu_us) / 1e6, (loaded - built) / 1e6, (warm - loaded) / 1e6);
  return (warm - start_cpu_us) / 1e6;
}

}  // namespace perfbench
