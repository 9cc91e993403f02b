// batch-process: S=2 shard servers as faust_sockd worker processes over
// loopback TCP, durable, cache off. One issuing thread sends apply()
// batches of 64 ops round-robin through the n=3 clients' stores, with one
// batch in flight, and resolves each with Ticket::wait().
//
// Every time is taken on the deployment's CPU clock: the CPU time of the
// benchmark process (issuing thread, shard runtimes, socket loops) plus
// that of the worker processes. The kernel leaves out the time the host
// stole from the virtual CPUs, which on a shared machine moved this
// workload's wall-clock figures twofold within an hour.
//
// The traced run adds sock.tax_us_per_batch: the same batch stream is
// replayed on an in-process kDeterministic deployment of the same shape,
// and its batch p50 is subtracted from the socket deployment's.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/store.h"
#include "bench.h"
#include "harness.h"
#include "model.h"
#include "shard/sharded_cluster.h"
#include "stream.h"
#include "ustor/messages.h"

namespace perfbench {
namespace {

using namespace faust;

constexpr std::size_t kShards = 2;
constexpr int kClients = 3;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kLoadBatch = 1000;
constexpr std::uint64_t kWarmupBatches = 10;
// WAL records per shard snapshot. A shard logs about 70 records per batch,
// so this snapshots once per ~60 batches per shard: about 3% of the
// batches carry a snapshot, and the p90 describes the batches without one.
// At 1024, 13% did, and the tail percentile spread 0.25 across seeds.
constexpr std::size_t kSnapshotEvery = 4096;
// Protocol timers of the process shards, in multiples of their sim-tick
// periods (sock::ProcessOptions::timer_scale, 20 by default). At 20 every
// idle client dummy-reads every 10 ms of real time, and a durable worker
// answers each read with the whole register: that background traffic grew
// with every slowdown of the machine (bytes per op rose from 380 kB to
// 535 kB as throughput fell 3x) and fed back into it. At 200 the probes
// check every 200 ms of real time.
constexpr std::uint64_t kTimerScale = 200;

constexpr std::uint8_t tag(ustor::MsgType t) { return static_cast<std::uint8_t>(t); }

StreamParams batch_params() {
  StreamParams p;
  p.get_share = 0.5;
  p.erase_share = 0;
  p.value_min = 128;
  p.value_max = 1024;
  p.keys = 2'000;
  return p;
}

/// One batch of writer `writer` as recorded on the model: every op holds
/// its own position on the model's clock, in batch order.
struct Planned {
  int writer = 0;
  std::vector<Op> ops;
  std::vector<std::int64_t> at;
  std::vector<Model::Handle> handles;
};

/// Records the puts of `ops` on the model, each invoked at its position.
Planned plan(Model& model, int writer, std::vector<Op> ops) {
  Planned p;
  p.writer = writer;
  for (const Op& op : ops) {
    p.at.push_back(model.tick());
    p.handles.push_back(op.kind == Kind::kPut ? model.put(writer, op.key, op.value, p.at.back())
                                              : Model::Handle{});
  }
  p.ops = std::move(ops);
  return p;
}

std::vector<api::Op> to_api(const Planned& p) {
  std::vector<api::Op> out;
  for (const Op& op : p.ops) {
    out.push_back(op.kind == Kind::kPut ? api::Op::put(key_name(op.key), op.value)
                                        : api::Op::get(key_name(op.key)));
  }
  return out;
}

/// Judges the results of one planned batch. Only this batch is in flight
/// and the other writers are idle, so the state each op must see is known
/// exactly: the store keeps per-shard program order and a key lives on one
/// shard, so an op sees every earlier op of the batch on its key and none
/// of the later ones. Each put therefore completes at its own position,
/// and each get is judged as if it ran alone at its position. Returns the
/// number of ops that did not succeed.
std::uint64_t judge(Model& model, const Planned& p, const api::BatchResult& res, Result& r) {
  if (res.results.size() != p.ops.size()) {
    r.fail("apply() returned " + std::to_string(res.results.size()) + " results for " +
           std::to_string(p.ops.size()) + " ops");
    return p.ops.size();
  }
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    if (p.ops[i].kind == Kind::kPut) model.complete(p.handles[i], p.at[i]);
  }
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const api::OpResult& o = res.results[i];
    const bool ok = (p.ops[i].kind == Kind::kPut ? o.put.status : o.get.status) == api::Status::kOk;
    if (!ok) {
      ++failed;
      r.fail("op " + std::to_string(i) + " of a batch of client " + std::to_string(p.writer) +
             " did not succeed");
      continue;
    }
    if (p.ops[i].kind != Kind::kGet) continue;
    Model::Seen seen;
    if (o.get.entry) seen = Model::Seen{true, o.get.entry->value, o.get.entry->writer, o.get.entry->seq};
    std::string err;
    if (model.check_get(p.ops[i].key, p.at[i], p.at[i], seen, o.get.cached, &err) !=
        Model::Verdict::kFresh) {
      r.fail("op " + std::to_string(i) + " of a batch: " +
             (err.empty() ? "get(" + key_name(p.ops[i].key) + ") returned a stale value" : err));
    }
  }
  return failed;
}

class Deployment {
 public:
  Deployment(const Options& opt, shard::ExecMode mode, const std::string& tag_name, Result& result)
      : opt_(opt), result_(result), params_(batch_params()), lag_(kClients, kShards) {
    root_ = std::make_unique<DirGuard>(
        fresh_dir(opt.work_dir, opt.workload + "-" + std::to_string(::getpid()) + "-" + tag_name));
    shard::ShardedClusterConfig cfg;
    cfg.shards = kShards;
    cfg.seed = kDeploymentSeed;
    cfg.mode = mode;
    cfg.shard_template.n = kClients;
    cfg.durability_root = root_->path();
    cfg.shard_template.durability.snapshot_every = kSnapshotEvery;
    cfg.process.worker_path = PERFBENCH_SOCKD_PATH;
    cfg.process.use_tcp = true;
    cfg.process.timer_scale = kTimerScale;
    // No dummy reads. The batches go round-robin, so no client is idle for
    // long, and each writer sees its puts stable through its own next
    // batch. A dummy read fires on real time while every figure is taken
    // on a CPU clock: with dummy reads every 100 ms, a busier machine
    // fitted more of them into each CPU millisecond, and the stable lag
    // dropped from 345 to 295 ms under load while the call times held.
    cfg.shard_template.faust.dummy_read_period = 0;
    // The in-process replay scales its FAUST timers alike, so that both
    // deployments do about as much background work per batch.
    if (mode == shard::ExecMode::kDeterministic) {
      cfg.shard_template.faust = cfg.shard_template.faust.scaled(kTimerScale);
    }
    cluster_ = std::make_unique<shard::ShardedCluster>(cfg);
    if (mode == shard::ExecMode::kProcess) {
      workers_ = children_named("faust_sockd");
      if (workers_.size() != kShards) {
        result_.fail("found " + std::to_string(workers_.size()) + " faust_sockd workers, not " +
                     std::to_string(kShards));
      }
    }
    model_ = std::make_unique<Model>(params_.keys, kClients);
    for (int i = 1; i <= kClients; ++i) {
      stores_.push_back(api::open_store(*cluster_, i));
      stores_.back()->set_wait_timeout(std::chrono::seconds(60));
      stores_.back()->on_event([this, i](const api::Event& e) {
        if (e.kind != api::Event::Kind::kStabilityAdvanced) return;
        const Advance a{e.stable_ts, cpu_us() / 1000.0, completions_.load()};
        std::lock_guard lock(advances_mu_);
        advances_[static_cast<std::size_t>(i - 1) * kShards + e.shard].push_back(a);
      });
    }
    stream_ = std::make_unique<OpStream>(params_, derive_seed(opt.seed, 300));
  }

  /// Stops the runtimes first: no event handler may run while the stores
  /// and this object are torn down.
  ~Deployment() {
    cluster_->stop();
    stores_.clear();
    cluster_.reset();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  shard::ShardedCluster& cluster() { return *cluster_; }
  const std::string& root() const { return root_->path(); }
  std::uint64_t user_bytes() const { return user_bytes_; }
  const Model& model() const { return *model_; }

  /// The deployment's CPU clock: this process and its workers.
  double cpu_us() const {
    double us = process_cpu_us();
    for (int pid : workers_) us += process_cpu_us(pid);
    return us;
  }

  void load() {
    user_bytes_ += load_keys(
        *model_, params_, opt_.seed, kClients, kLoadBatch,
        [this](int w, std::vector<api::Op> ops) { return store(w).apply(std::move(ops)).wait(); },
        result_);
  }

  void warm_up() { run(nullptr, 0, kWarmupBatches); }

  /// Issues batches until `batches` were sent (batches > 0) or `seconds`
  /// of wall time passed.
  void run(Phase* ph, double seconds, std::uint64_t batches) {
    if (ph != nullptr) ph->before = read_counters(*cluster_, root());
    const auto start = Clock::now();
    const double start_cpu = cpu_us();
    const auto deadline = start + std::chrono::duration<double>(seconds);
    std::uint64_t sent = 0;
    while (batches > 0 ? sent < batches : Clock::now() < deadline) {
      const int w = static_cast<int>(batch_no_++ % kClients) + 1;
      std::vector<Op> ops;
      for (std::size_t i = 0; i < kBatch; ++i) ops.push_back(stream_->next());
      apply(w, std::move(ops), ph);
      ++sent;
      if (!result_.correct) break;
    }
    if (ph != nullptr) {
      ph->cpu_s = (cpu_us() - start_cpu) / 1e6;
      ph->wall_s = std::chrono::duration<double>(Clock::now() - start).count();
      ph->after = read_counters(*cluster_, root());
      lag_.close(*ph);
    }
  }

  /// Sends `ops` as one apply() of writer `w`, judges every result, and
  /// accounts the batch in `ph` when given.
  void apply(int w, std::vector<Op> ops, Phase* ph) {
    for (const Op& op : ops) {
      if (op.kind == Kind::kPut) user_bytes_ += key_name(op.key).size() + op.value.size();
    }
    const Planned p = plan(*model_, w, std::move(ops));
    const double t0 = cpu_us();
    const api::BatchResult res = store(w).apply(to_api(p)).wait();
    const double us = cpu_us() - t0;
    const std::uint64_t failed = judge(*model_, p, res, result_);
    completions_.fetch_add(p.ops.size());
    if (ph == nullptr) return;
    ph->failed += failed;
    ph->ops += p.ops.size();
    ++ph->batches;
    ph->lat.call_us.push_back(us);
    for (std::size_t i = 0; i < p.ops.size() && i < res.results.size(); ++i) {
      if (p.ops[i].kind != Kind::kPut) continue;
      ++ph->puts;
      const api::PutResult& put = res.results[i].put;
      if (put.status == api::Status::kOk && put.ts > 0) lag_.add(w, put, completions_, t0 / 1000.0);
    }
    lag_.poll([this](int c, const api::PutResult& put) { return stable_at(c, put); }, *ph);
  }

  void final_check() { perfbench::final_check(*cluster_, stores_, *model_, result_); }

  api::Store& store(int w) { return *stores_[static_cast<std::size_t>(w - 1)]; }

 private:
  /// When the stability cut of client `c` on the put's shard first covered
  /// the put (nullopt: not yet).
  std::optional<StabilityLag::Seen> stable_at(int c, const api::PutResult& put) {
    std::lock_guard lock(advances_mu_);
    const auto& adv = advances_[static_cast<std::size_t>(c - 1) * kShards + put.shard];
    const auto it = std::lower_bound(adv.begin(), adv.end(), put.ts,
                                     [](const Advance& a, Timestamp ts) { return a.cut < ts; });
    if (it == adv.end()) return std::nullopt;
    return StabilityLag::Seen{it->cpu_ms, it->completions};
  }

  const Options& opt_;
  Result& result_;
  const StreamParams params_;
  std::unique_ptr<DirGuard> root_;
  std::unique_ptr<shard::ShardedCluster> cluster_;
  std::vector<int> workers_;
  std::vector<std::unique_ptr<api::Store>> stores_;
  std::unique_ptr<Model> model_;
  std::unique_ptr<OpStream> stream_;
  std::uint64_t batch_no_ = 0;
  std::atomic<std::uint64_t> completions_{0};
  std::uint64_t user_bytes_ = 0;
  StabilityLag lag_;
  // Every advance of a stability cut as the kStabilityAdvanced events
  // report it (they fire on the shard runtime threads), per (client,
  // shard), with when it happened: a put is stable from the first advance
  // that covers its timestamp.
  struct Advance {
    Timestamp cut;
    double cpu_ms;
    std::uint64_t completions;
  };
  std::mutex advances_mu_;
  std::array<std::vector<Advance>, kClients * kShards> advances_;
};

double build(std::unique_ptr<Deployment>& d, const Options& opt, shard::ExecMode mode,
              const std::string& name, Result& r, int index = 0) {
  return perfbench::set_up(d, index, process_cpu_us(), [&] {
    return std::make_unique<Deployment>(opt, mode, name, r);
  });
}

}  // namespace

Result run_batch_process(const Options& opt) {
  Result r;
  r.note("deployment",
         "kProcess S=2 faust_sockd workers over loopback TCP, n=3, durable (WAL + snapshot "
         "every 4096 records), cache off, timer scale 200, no dummy reads; batches of 64, one in "
         "flight");
  r.note("flush_policy", "fflush per WAL record, no fsync (as shipped)");
  const StreamParams p = batch_params();
  r.note("stream", "zipf 0.99 over " + std::to_string(p.keys) + " keys, get 0.5, put 0.5, values " +
                       std::to_string(p.value_min) + "-" + std::to_string(p.value_max) + " B");
  r.note("clock", "CPU time of the benchmark process and its workers");

  if (!opt.trace) {
    run_replicas(
        opt, false,
        [&](int i, double seconds, std::uint64_t ops) {
          std::unique_ptr<Deployment> d;
          const double setup =
              build(d, opt, shard::ExecMode::kProcess, "proc" + std::to_string(i), r, i);
          Phase ph;
          d->run(&ph, seconds, ops / kBatch);
          if (i == 0) r.note("partition_size", partition_size(d->model(), kClients, kShards));
          d->final_check();
          return std::make_pair(setup, std::move(ph));
        },
        r);
    return r;
  }

  // The traced run: counts around half the run, then the socket tax.
  const StealMeter steal;
  std::unique_ptr<Deployment> d;
  build(d, opt, shard::ExecMode::kProcess, "proc", r);
  Phase ph;
  d->run(&ph, opt.seconds / 2, opt.fixed_ops / kBatch);
  r.note("steal_share", std::to_string(steal.share_since_start()));
  report_counter_layers(ph, d->root(), d->user_bytes(), opt, r);
  const Counters& a = ph.before;
  const Counters& b = ph.after;
  const double n_batches = static_cast<double>(ph.batches);
  const auto publications = [](const Counters& c) {
    return static_cast<double>(c.tag_msgs[tag(ustor::MsgType::kSubmit)] +
                               c.tag_msgs[tag(ustor::MsgType::kSubmitDelta)]);
  };
  r.set("api.publications_per_batch", ratio(publications(b) - publications(a), n_batches),
        "count");
  r.set("api.failed_op_share", ratio(static_cast<double>(ph.failed), static_cast<double>(ph.ops)),
        "ratio");
  r.set("faust.stable_lag_ops_p50", lag_median(ph.lag_ops, ph.never_stable, r), "ops");
  r.set("sock.frames_per_batch", ratio(static_cast<double>(b.frames_out - a.frames_out), n_batches),
        "count");
  r.set("rt.tasks_per_batch", ratio(static_cast<double>(b.tasks - a.tasks), n_batches), "count");
  measure_recovery(d->cluster(), r);
  r.attempted = ph.ops;
  r.failed = ph.failed;
  r.note("partition_size", partition_size(d->model(), kClients, kShards));
  d->final_check();

  // The socket tax: the same stream (same seed, same set-up, same batch
  // count) replayed in-process on the deterministic scheduler.
  const double proc_p50 = percentile(ph.lat.call_us, 0.5);
  d.reset();
  Result scratch;
  std::unique_ptr<Deployment> det;
  build(det, opt, shard::ExecMode::kDeterministic, "det", scratch);
  Phase dp;
  det->run(&dp, 0, ph.batches);
  det->final_check();
  for (const auto& e : scratch.errors) r.fail("in-process replay: " + e);
  r.set("sock.tax_us_per_batch", proc_p50 - percentile(dp.lat.call_us, 0.5), "us");
  return r;
}

void self_test_batch_order(const Options& base, const SelfCheck& check) {
  // A batch that reads its own writes: get(k), put(k, a), get(k),
  // put(k, b), get(k). Each get must see exactly the puts before it.
  const std::uint64_t k = 0;  // loaded by writer 1
  const int w = 2;
  const auto batch = [&] {
    return std::vector<Op>{{Kind::kGet, k, {}}, {Kind::kPut, k, "a"}, {Kind::kGet, k, {}},
                           {Kind::kPut, k, "b"}, {Kind::kGet, k, {}}};
  };

  // Through a deployment: the store must pass the check.
  Options opt = base;
  opt.workload = "batch-process";
  Result r;
  {
    std::unique_ptr<Deployment> d;
    build(d, opt, shard::ExecMode::kDeterministic, "order", r);
    d->apply(w, batch(), nullptr);
    d->final_check();
  }
  check(r.correct, "batch-process: a batch that reads its own writes passes the output check" +
                       (r.errors.empty() ? std::string() : " (" + r.errors[0] + ")"));

  // Forged answers: the check must refuse a get that sees the state from
  // before the batch, or a put that comes later in the batch.
  const auto judged = [&](std::vector<std::optional<std::string>> gets) {
    Model m(1, kClients);
    m.complete(m.put(1, k, "v0", m.tick()), m.tick());
    const Planned p = plan(m, w, batch());
    api::BatchResult res;
    std::size_t g = 0;
    for (const Op& op : p.ops) {
      api::OpResult o;
      if (op.kind == Kind::kPut) {
        o.kind = api::Op::Kind::kPut;
        o.put.ts = 1;
      } else {
        o.kind = api::Op::Kind::kGet;
        const std::optional<std::string>& v = gets[g++];
        if (v) {
          o.get.entry = *v == "v0" ? kv::KvEntry{"v0", 1, 1}
                                   : kv::KvEntry{*v, w, *v == "a" ? std::uint64_t{1} : 2};
        }
      }
      res.results.push_back(o);
    }
    Result out;
    judge(m, p, res, out);
    return out.correct;
  };
  check(judged({"v0", "a", "b"}), "batch-process check: the true answers pass");
  check(!judged({"v0", "v0", "b"}), "batch-process check: a get that misses an earlier put fails");
  check(!judged({"v0", "b", "b"}), "batch-process check: a get that sees a later put fails");
  check(!judged({"a", "a", "b"}), "batch-process check: a get before every put that sees one fails");
}

}  // namespace perfbench
