// kv-mixed and read-cached: S=3 shards, n=3 clients, one thread driving
// the shared deterministic scheduler. Each client runs a closed loop with
// one single-op Store call in flight.
//
// Every time is taken on the driving thread's CPU clock: the whole
// deployment runs on that one thread, so its CPU time is the op's latency
// without the time the host stole from the virtual CPU or gave to other
// processes.
//
// Untraced runs resolve tickets by letting the scheduler run while no
// ticket is ready (what Ticket::settle() does for one ticket, extended to
// the three in flight), and stamp each completion right after the step
// that produced it. A traced run adds a second deployment from the same
// seed that replaces this with the benchmark's own loop over
// sched().step(): every step is timed and attributed to a layer by the
// public counters that moved during it. The two take turns at the same
// segments of ops, so the untraced one is the exact reference.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/store.h"
#include "bench.h"
#include "cache/cache_wire.h"
#include "harness.h"
#include "model.h"
#include "shard/sharded_cluster.h"
#include "stream.h"
#include "ustor/messages.h"

namespace perfbench {
namespace {

using namespace faust;

constexpr std::size_t kShards = 3;
constexpr int kClients = 3;
constexpr std::size_t kSnapshotEvery = 1024;  // WAL records per shard snapshot
constexpr std::size_t kLoadBatch = 2000;
constexpr std::size_t kMaxSpans = 1'000'000;
constexpr std::size_t kDriveBudget = 5'000'000;  // steps without any completion
constexpr std::uint64_t kSegmentOps = 60;  // ops per segment of the traced run

constexpr std::uint8_t tag(ustor::MsgType t) { return static_cast<std::uint8_t>(t); }
constexpr std::uint8_t tag(cache::MsgType t) { return static_cast<std::uint8_t>(t); }

struct Shape {
  bool durable = false;
  bool cache = false;
  StreamParams params;
  std::uint64_t warmup_ops = 0;
};

Shape shape_of(const std::string& workload) {
  Shape s;
  if (workload == "kv-mixed") {
    s.durable = true;
    s.params.get_share = 0.5;
    s.params.erase_share = 0.025;
    s.warmup_ops = 150;
  } else {  // read-cached
    s.cache = true;
    s.params.get_share = 0.95;
    s.params.erase_share = 0;
    s.warmup_ops = 600;
  }
  return s;
}

// --- Trace -------------------------------------------------------------------

// Ordered by attribution precedence (see drive_traced); kApi is never
// contested, it times the Store call itself.
enum Layer : std::uint8_t { kApi, kServer, kClient, kCache, kOther, kLayers };
const char* const kLayerNames[kLayers] = {"api", "server", "client", "cache", "other"};

struct Span {
  std::uint64_t start_ns;  // CPU nanoseconds since the trace began
  std::uint32_t dur_ns;
  std::uint32_t order;  // the client's issue order of the op in flight
  std::uint8_t layer, client, shard;
};

/// Per-shard counter positions the step attribution diffs against.
struct Watch {
  std::uint64_t server_sends = 0, commits = 0, cache_sends = 0, wal = 0;
  std::array<std::uint64_t, kClients + 1> to_client{}, commit_from{}, cache_to{};
};

// --- The closed loop ---------------------------------------------------------

struct Slot {
  int client = 0;
  api::Store* store = nullptr;
  std::unique_ptr<OpStream> stream;
  bool busy = false;
  Kind kind = Kind::kGet;
  std::uint64_t key = 0;
  std::size_t shard = 0;
  std::uint32_t order = 0;
  std::int64_t invoked = 0;
  Model::Handle handle;
  api::Ticket<api::PutResult> put;
  api::Ticket<api::GetResult> get;
  double issued_us = 0;  // CPU clock
  bool ready() const { return kind == Kind::kGet ? get.ready() : put.ready(); }
};

struct DetPhase : Phase {
  double layer_ns[kLayers] = {};  // attributed self time, CPU nanoseconds
  bool started = false;
};

class Deployment {
 public:
  Deployment(const Options& opt, const Shape& shape, int setup_index, Result& result)
      : opt_(opt), shape_(shape), result_(result), lag_(kClients, kShards) {
    shard::ShardedClusterConfig cfg;
    cfg.shards = kShards;
    cfg.seed = kDeploymentSeed;
    cfg.mode = shard::ExecMode::kDeterministic;
    cfg.shard_template.n = kClients;
    cfg.shard_template.cache.enabled = shape.cache;
    if (shape.durable) {
      root_ = std::make_unique<DirGuard>(fresh_dir(
          opt.work_dir, opt.workload + "-" + std::to_string(::getpid()) + "-" +
                            std::to_string(setup_index)));
      cfg.durability_root = root_->path();
      cfg.shard_template.durability.snapshot_every = kSnapshotEvery;
    }
    cluster_ = std::make_unique<shard::ShardedCluster>(cfg);
    model_ = std::make_unique<Model>(shape.params.keys, kClients);
    for (int i = 1; i <= kClients; ++i) {
      stores_.push_back(api::open_store(*cluster_, i));
      stores_.back()->set_step_budget(kDriveBudget);
      Slot& s = slots_[static_cast<std::size_t>(i - 1)];
      s.client = i;
      s.store = stores_.back().get();
      s.stream = std::make_unique<OpStream>(shape.params, derive_seed(opt.seed, 100 + i));
    }
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  shard::ShardedCluster& cluster() { return *cluster_; }
  Model& model() { return *model_; }
  double cpu_us() const { return thread_cpu_us(); }
  const std::string& root() const {
    static const std::string none;
    return root_ ? root_->path() : none;
  }

  void load() {
    user_bytes_ += load_keys(
        *model_, shape_.params, opt_.seed, kClients, kLoadBatch,
        [this](int w, std::vector<api::Op> ops) { return store(w).apply(std::move(ops)).settle(); },
        result_);
  }

  void warm_up() { run(nullptr, 0, shape_.warmup_ops, false); }

  /// Runs the closed loop until `ops` calls were issued (ops > 0) or the
  /// wall clock passes `seconds`, then drains. Accumulates into `ph` when
  /// given; `traced` times and attributes every scheduler step.
  void run(DetPhase* ph, double seconds, std::uint64_t ops, bool traced) {
    phase_ = ph;
    traced_ = traced;
    if (traced && spans_.empty()) trace_epoch_us_ = cpu_us();
    if (traced) arm_watch();
    if (ph != nullptr && !ph->started) {
      ph->before = read_counters(*cluster_, root());
      ph->started = true;
    }
    const auto start = Clock::now();
    const double start_cpu = cpu_us();
    const auto deadline = start + std::chrono::duration<double>(seconds);
    std::uint64_t issued = 0;
    bool stopping = false;
    while (true) {
      for (Slot& s : slots_) {
        if (!s.busy && !stopping) {
          issue(s);
          ++issued;
          stopping = ops > 0 && issued >= ops;
        }
      }
      bool any_busy = false;
      for (const Slot& s : slots_) any_busy = any_busy || s.busy;
      if (!any_busy) break;
      if (traced ? !drive_traced() : !drive()) {
        result_.fail("an op did not complete within " + std::to_string(kDriveBudget) +
                     " scheduler steps");
        break;
      }
      const double now = cpu_us();
      for (Slot& s : slots_) {
        if (s.busy && s.ready()) complete(s, now);
      }
      if (ph != nullptr) {
        lag_.poll(
            [&](int c, const api::PutResult& put) -> std::optional<StabilityLag::Seen> {
              if (!store(c).stable(put)) return std::nullopt;
              return StabilityLag::Seen{now / 1000.0, completions_};
            },
            *ph);
      }
      stopping = stopping || (ops == 0 && Clock::now() >= deadline);
    }
    if (ph != nullptr) {
      ph->wall_s += us_between(start, Clock::now()) / 1e6;
      ph->cpu_s += (cpu_us() - start_cpu) / 1e6;
      ph->after = read_counters(*cluster_, root());
    }
    phase_ = nullptr;
    traced_ = false;
  }

  /// Ends a phase: puts still waiting for stability count as never stable.
  void close(DetPhase& ph) { lag_.close(ph); }

  void final_check() { perfbench::final_check(*cluster_, stores_, *model_, result_); }

  void write_spans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "start_ns,dur_ns,layer,client,shard,order\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%llu,%u,%s,%u,%u,%u\n", static_cast<unsigned long long>(s.start_ns),
                   s.dur_ns, kLayerNames[s.layer], s.client, s.shard, s.order);
    }
    std::fclose(f);
  }
  std::size_t spans_dropped() const { return spans_dropped_; }

  api::Store& store(int client) { return *stores_[static_cast<std::size_t>(client - 1)]; }
  /// Key + value bytes of every put issued so far, the key load included.
  std::uint64_t user_bytes() const { return user_bytes_; }

 private:
  void issue(Slot& s) {
    const Op op = s.stream->next();
    s.kind = op.kind;
    s.key = op.key;
    std::string key = key_name(op.key);
    s.shard = s.store->home_shard(key);
    s.invoked = model_->tick();
    ++s.order;
    if (op.kind == Kind::kPut) {
      s.handle = model_->put(s.client, op.key, op.value, s.invoked);
      user_bytes_ += key.size() + op.value.size();
    } else if (op.kind == Kind::kErase) {
      s.handle = model_->erase(s.client, op.key, s.invoked);
    }
    const double t0 = cpu_us();
    switch (op.kind) {
      case Kind::kPut:
        s.put = s.store->put(std::move(key), op.value);
        break;
      case Kind::kErase:
        s.put = s.store->erase(std::move(key));
        break;
      case Kind::kGet:
        s.get = s.store->get(std::move(key));
        break;
    }
    s.issued_us = t0;
    s.busy = true;
    if (traced_) record_span(kApi, s.client, s.shard, s.order, t0, cpu_us());
  }

  void complete(Slot& s, double now_us) {
    s.busy = false;
    ++completions_;
    const std::int64_t done = model_->tick();
    const double us = now_us - s.issued_us;
    DetPhase* ph = phase_;
    if (s.kind == Kind::kGet) {
      const api::GetResult g = s.get.result();
      if (g.status != api::Status::kOk) {
        if (ph != nullptr) ++ph->failed;
        result_.fail("get of client " + std::to_string(s.client) + " did not succeed");
      } else {
        Model::Seen seen;
        if (g.entry) seen = Model::Seen{true, g.entry->value, g.entry->writer, g.entry->seq};
        std::string err;
        const auto verdict = model_->check_get(s.key, s.invoked, done, seen, g.cached, &err);
        if (verdict == Model::Verdict::kWrong) result_.fail(err);
        if (ph != nullptr) {
          ph->cached_gets += g.cached ? 1 : 0;
          ph->stale += verdict == Model::Verdict::kStale ? 1 : 0;
        }
      }
      if (ph != nullptr) {
        ++ph->gets;
        ph->lat.get_us.push_back(us);
      }
    } else {
      const api::PutResult r = s.put.result();
      model_->complete(s.handle, done);
      if (r.status != api::Status::kOk) {
        if (ph != nullptr) ++ph->failed;
        result_.fail("put/erase of client " + std::to_string(s.client) + " did not succeed");
      }
      if (ph != nullptr) {
        ++ph->puts;
        ph->lat.put_us.push_back(us);
        if (r.ts > 0 && r.status == api::Status::kOk) {
          lag_.add(s.client, r, completions_, s.issued_us / 1000.0);
        }
      }
    }
    if (ph != nullptr) {
      ++ph->ops;
      ph->lat.call_us.push_back(us);
    }
  }

  bool any_ready() const {
    for (const Slot& s : slots_) {
      if (s.busy && s.ready()) return true;
    }
    return false;
  }

  bool drive() {
    std::size_t steps = 0;
    cluster_->sched().run_while([&] { return !any_ready() && ++steps <= kDriveBudget; });
    return any_ready();
  }

  // -- traced stepping --------------------------------------------------

  void arm_watch() {
    for (std::size_t s = 0; s < kShards; ++s) observe(s, watch_[s]);
  }

  /// The client whose channel moved, per attribution rule (0 = none).
  struct Moved {
    int server = 0, commit = 0, cache = 0;
  };

  /// Reads shard `s`'s attribution counters into `w` and reports what
  /// moved since the previous read. A WAL append without a reply (a
  /// logged COMMIT) counts as server work of no particular client.
  Moved observe(std::size_t s, Watch& w) {
    Moved m;
    Cluster& sh = cluster_->shard(s);
    const net::Network& net = sh.net();
    const std::uint64_t ss = net.total_for(tag(ustor::MsgType::kReply)).messages +
                             net.total_for(tag(ustor::MsgType::kReplyDelta)).messages;
    const std::uint64_t cm = net.total_for(tag(ustor::MsgType::kCommit)).messages;
    const std::uint64_t cs = net.total_for(tag(cache::MsgType::kReply)).messages;
    const std::uint64_t wal = sh.pserver() != nullptr ? sh.pserver()->wal_records() : 0;
    // Per-channel counters sit in a map: scan them only when the per-type
    // total of this shard moved.
    const auto scan = [](bool moved, auto read, auto& last, int& who) {
      if (!moved) return;
      for (ClientId i = 1; i <= kClients; ++i) {
        const std::uint64_t v = read(i);
        if (v != last[i] && who <= 0) who = i;
        last[i] = v;
      }
    };
    if (wal != w.wal) m.server = -1;
    scan(ss != w.server_sends, [&](ClientId i) { return net.channel(kServerNode, i).messages; },
         w.to_client, m.server);
    scan(cm != w.commits,
         [&](ClientId i) {
           return net.channel_for(i, kServerNode, tag(ustor::MsgType::kCommit)).messages;
         },
         w.commit_from, m.commit);
    scan(cs != w.cache_sends,
         [&](ClientId i) { return net.channel(cache::kCacheNodeId, i).messages; }, w.cache_to,
         m.cache);
    w.server_sends = ss;
    w.commits = cm;
    w.cache_sends = cs;
    w.wal = wal;
    return m;
  }

  /// Steps the scheduler until a ticket is ready, timing every step and
  /// attributing it by precedence: server, then client (a ticket completed
  /// or a COMMIT was sent), then cache, else other.
  bool drive_traced() {
    sim::Scheduler& sched = cluster_->sched();
    for (std::size_t steps = 0; steps < kDriveBudget; ++steps) {
      if (any_ready()) return true;
      const double t0 = cpu_us();
      if (!sched.step()) return any_ready();
      const double t1 = cpu_us();
      Layer layer = kOther;
      int client = 0;
      std::size_t shard = 0;
      const auto claim = [&](Layer l, int c, std::size_t s) {
        if (l >= layer) return;
        layer = l;
        client = std::max(c, 0);
        shard = s;
      };
      for (const Slot& sl : slots_) {
        if (sl.busy && sl.ready()) claim(kClient, sl.client, sl.shard);
      }
      for (std::size_t s = 0; s < kShards; ++s) {
        const Moved m = observe(s, watch_[s]);
        if (m.server != 0) claim(kServer, m.server, s);
        if (m.commit != 0) claim(kClient, m.commit, s);
        if (m.cache != 0) claim(kCache, m.cache, s);
      }
      const std::uint32_t order =
          client > 0 ? slots_[static_cast<std::size_t>(client - 1)].order : 0;
      record_span(layer, client, shard, order, t0, t1);
    }
    return any_ready();
  }

  void record_span(Layer layer, int client, std::size_t shard, std::uint32_t order, double t0_us,
                   double t1_us) {
    const double dur = (t1_us - t0_us) * 1000.0;
    if (phase_ != nullptr) phase_->layer_ns[layer] += dur;
    if (spans_.size() >= kMaxSpans) {
      ++spans_dropped_;
      return;
    }
    spans_.push_back(Span{static_cast<std::uint64_t>((t0_us - trace_epoch_us_) * 1000.0),
                          static_cast<std::uint32_t>(dur), order, layer,
                          static_cast<std::uint8_t>(client), static_cast<std::uint8_t>(shard)});
  }

  const Options& opt_;
  const Shape shape_;
  Result& result_;
  // Declaration order is teardown order in reverse: stores before the
  // cluster, the cluster before its durability root.
  std::unique_ptr<DirGuard> root_;
  std::unique_ptr<shard::ShardedCluster> cluster_;
  std::vector<std::unique_ptr<api::Store>> stores_;
  std::unique_ptr<Model> model_;
  std::array<Slot, kClients> slots_;
  StabilityLag lag_;
  std::uint64_t completions_ = 0;
  std::uint64_t user_bytes_ = 0;
  DetPhase* phase_ = nullptr;
  bool traced_ = false;
  std::array<Watch, kShards> watch_;
  std::vector<Span> spans_;
  std::size_t spans_dropped_ = 0;
  double trace_epoch_us_ = 0;
};

double build(std::unique_ptr<Deployment>& d, const Options& opt, const Shape& shape, int index,
              Result& result) {
  return perfbench::set_up(d, index, thread_cpu_us(), [&] {
    return std::make_unique<Deployment>(opt, shape, index, result);
  });
}

void report_sizes(Deployment& d, const Counters& c, Result& r) {
  r.note("partition_size", partition_size(d.model(), kClients, kShards));
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%llu B held over %zu shards (budget %zu B each)",
                static_cast<unsigned long long>(c.c_arena), kShards,
                static_cast<std::size_t>(cache::CacheOptions{}.arena_bytes));
  r.note("cache_size", buf);
}

/// The per-layer metrics of a traced run: counts and self times from the
/// traced deployment's phase `ph`, the untraced twin's phase `base` as the
/// reference for latencies, coverage and overhead, and direct calls on
/// run-shaped inputs.
void report_layers(Deployment& d, const Options& opt, const Shape& shape, const DetPhase& ph,
                   DetPhase& base, Result& r) {
  const double n_ops = std::max(1.0, static_cast<double>(ph.ops));
  const auto self_us = [&](Layer l) { return ph.layer_ns[l] / 1000.0 / n_ops; };

  report_counter_layers(ph, d.root(), d.user_bytes(), opt, r);
  base.lat.report_kinds(r);
  r.set("api.issue_us", self_us(kApi), "us");
  r.set("api.failed_op_share", ratio(static_cast<double>(ph.failed), n_ops), "ratio");
  r.set("faust.client_step_us", self_us(kClient), "us");
  r.set("faust.stable_lag_ops_p50", lag_median(ph.lag_ops, ph.never_stable, r), "ops");
  r.set("ustor.server_step_us", self_us(kServer), "us");
  r.set("cache.step_us", self_us(kCache), "us");
  r.set("sim.other_step_us", self_us(kOther), "us");

  // Sign/verify on a message of the run's mean signed size: the four
  // payloads a client signs per op (SUBMIT, DATA, COMMIT, PROOF), shaped
  // by client 1's current version on shard 0.
  const ustor::Version& ver = d.cluster().shard(0).client(1).engine().version();
  const Timestamp t = ver.v(1);
  const double signed_mean =
      (static_cast<double>(ustor::submit_payload(ustor::OpCode::kWrite, 1, t).size()) +
       static_cast<double>(ustor::data_payload(t, crypto::Hash{}).size()) +
       static_cast<double>(ustor::commit_payload(ver).size()) +
       static_cast<double>(ustor::proof_payload(ver.m(1)).size())) /
      4.0;
  double verify_us = 0;
  r.set("crypto.sign_us", time_sign_verify(static_cast<std::size_t>(signed_mean), &verify_us),
        "us");
  r.set("crypto.verify_us", verify_us, "us");
  r.note("signed_message_bytes", std::to_string(signed_mean));

  // Partition codec on shard-0 entries of the model, cut to the run's mean
  // partition size per writer per shard.
  std::size_t present = 0;
  for (int w = 1; w <= kClients; ++w) {
    present += d.model().partition_of(w, [](std::uint64_t) { return true; }).size();
  }
  const std::size_t mean_entries = present / (kClients * kShards);
  std::map<std::string, std::pair<std::string, std::uint64_t>> part;
  api::Store& st1 = d.store(1);
  for (int w = 1; w <= kClients && part.size() < mean_entries; ++w) {
    for (const auto& [k, v] : d.model().partition_of(
             w, [&](std::uint64_t key) { return st1.home_shard(key_name(key)) == 0; })) {
      part.emplace(key_name(k), std::make_pair(*v, d.model().current_seq(w, k)));
    }
  }
  std::vector<std::pair<std::string, std::pair<std::string, std::uint64_t>>> entries(part.begin(),
                                                                                     part.end());
  if (entries.size() > mean_entries) entries.resize(mean_entries);
  double decode_us = 0;
  r.set("kvstore.encode_partition_us", time_partition_codec(entries, &decode_us), "us");
  r.set("kvstore.decode_partition_us", decode_us, "us");

  // Recovery, once, after the timed phase; the final check then runs
  // against the recovered shard.
  if (shape.durable) measure_recovery(d.cluster(), r);

  // The trace against the untraced twin, which ran the same ops:
  // attributed self time per op over the twin's CPU time per op, and the
  // traced over the untraced mean latency.
  double attributed_ns = 0;
  for (double v : ph.layer_ns) attributed_ns += v;
  const double untraced_us_per_op = base.cpu_s * 1e6 / std::max(1.0, static_cast<double>(base.ops));
  r.set("trace.coverage", ratio(attributed_ns / 1000.0 / n_ops, untraced_us_per_op), "ratio");
  r.set("trace.overhead_pct", (ratio(mean(ph.lat.call_us), mean(base.lat.call_us)) - 1.0) * 100.0,
        "%");
  report_sizes(d, ph.after, r);
}

}  // namespace

Result run_deterministic(const Options& opt) {
  Result r;
  const Shape shape = shape_of(opt.workload);
  r.note("deployment", std::string("kDeterministic S=3 n=3, ") +
                           (shape.durable ? "durable (WAL + snapshot every 1024 records)"
                                          : "memory-only servers") +
                           (shape.cache ? ", cache tier on" : ", cache off"));
  if (shape.durable) r.note("flush_policy", "fflush per WAL record, no fsync (as shipped)");
  r.note("stream", "zipf 0.99 over " + std::to_string(shape.params.keys) + " keys, get " +
                       std::to_string(shape.params.get_share) + ", erase " +
                       std::to_string(shape.params.erase_share) + ", values " +
                       std::to_string(shape.params.value_min) + "-" +
                       std::to_string(shape.params.value_max) + " B");
  r.note("clock", "CPU time of the driving thread");

  if (!opt.trace) {
    run_replicas(
        opt, true,
        [&](int i, double seconds, std::uint64_t ops) {
          std::unique_ptr<Deployment> d;
          const double setup = build(d, opt, shape, i, r);
          DetPhase ph;
          d->run(&ph, seconds, ops, false);
          d->close(ph);
          if (i == 0) report_sizes(*d, ph.after, r);
          d->final_check();
          return std::make_pair(setup, Phase(std::move(ph)));
        },
        r);
    return r;
  }

  // The traced run. An untraced twin, built from the same seed, runs every
  // segment of kSegmentOps ops just before the traced deployment runs the
  // same segment: both do identical work under the same machine
  // conditions.
  const StealMeter steal;
  std::unique_ptr<Deployment> d, twin;
  build(d, opt, shape, 0, r);
  build(twin, opt, shape, 1, r);
  DetPhase ph, base;
  const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
  while (opt.fixed_ops > 0 ? ph.ops < opt.fixed_ops : Clock::now() < deadline) {
    twin->run(&base, 0, kSegmentOps, false);
    d->run(&ph, 0, kSegmentOps, true);
    if (!r.correct) break;
  }
  twin->close(base);
  d->close(ph);
  if (base.ops != ph.ops ||
      base.after.bytes - base.before.bytes != ph.after.bytes - ph.before.bytes) {
    r.fail("the traced deployment and its untraced twin diverged");
  }
  twin->final_check();
  r.attempted = base.ops + ph.ops;
  r.failed = base.failed + ph.failed;
  report_layers(*d, opt, shape, ph, base, r);
  std::filesystem::create_directories(opt.work_dir);
  const std::string spans = opt.work_dir + "/spans-" + opt.workload + ".csv";
  d->write_spans(spans);
  r.note("spans", spans + " (" + std::to_string(d->spans_dropped()) + " dropped past the cap)");
  r.note("steal_share", std::to_string(steal.share_since_start()));
  d->final_check();
  return r;
}

}  // namespace perfbench
