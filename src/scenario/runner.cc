#include "scenario/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "api/store.h"
#include "common/check.h"
#include "crypto/chunked_hasher.h"
#include "exec/executor.h"
#include "ustor/messages.h"
#include "wire/encoder.h"

namespace faust::scenario {
namespace {

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

crypto::Hash merged_view_digest(const std::map<std::string, kv::KvEntry>& view) {
  wire::Writer w;
  for (const auto& [key, e] : view) {
    w.put_bytes(BytesView(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()));
    w.put_bytes(
        BytesView(reinterpret_cast<const std::uint8_t*>(e.value.data()), e.value.size()));
    w.put_u32(static_cast<std::uint32_t>(e.writer));
    w.put_u64(e.seq);
  }
  const Bytes encoded = w.take();
  return crypto::ChunkedHasher::digest(encoded);
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  FAUST_CHECK(config.kills.empty() || !config.dir.empty());
  const bool det = config.mode == shard::ExecMode::kDeterministic;

  // A schedule that LOSES messages — probabilistic drops, or partitions
  // (anything in flight into the cut is gone, and over a socket a
  // blackholed or reset frame is gone too) — needs the client
  // retransmission timer: the fabric's reliability guarantee is off, and
  // without re-sends the op stream just hangs out its budget. Catch the
  // misconfiguration here instead of as a silent timeout.
  bool lossy = config.fault_plan.drop > 0 || !config.partitions.empty();
  for (const ChaosEvent& ev : config.chaos) lossy = lossy || ev.plan.drop > 0;
  FAUST_CHECK(!lossy || config.retransmit_base > 0);

  shard::ShardedClusterConfig sc_cfg;
  sc_cfg.shards = config.shards;
  sc_cfg.seed = config.cluster_seed;
  sc_cfg.mode = config.mode;
  sc_cfg.durability_root = config.dir;
  sc_cfg.shard_template.n = config.workload.n_writers;
  sc_cfg.shard_template.durability.snapshot_every = config.snapshot_every;
  // Dummy reads OFF: they consume client timestamps on a timer, which
  // would make the op stream's engine footprint depend on virtual-time
  // trajectory — the crash and crash-free runs must issue IDENTICAL
  // engine ops. Probes stay on (they carry no timestamps) so stability
  // cuts still advance.
  sc_cfg.shard_template.faust.dummy_read_period = 0;
  sc_cfg.shard_template.faust.retransmit_base = config.retransmit_base;
  sc_cfg.shard_template.faust.retransmit_cap = config.retransmit_cap;
  sc_cfg.shard_template.cache = config.cache;
  sc_cfg.process = config.process;
  shard::ShardedCluster sc(sc_cfg);

  // D10 chaos plumbing. Simulated shards take the FaultPlan directly on
  // their fabric (calls serialized onto the shard's executor); process
  // shards go through the transport's chaos shim (any-thread safe), with
  // a per-shard shadow of the installed ChaosOptions so partitions and
  // plan changes compose — the healer thread must restore latency shims,
  // not wipe them.
  std::mutex chaos_mu;
  std::vector<sock::ChaosOptions> chaos_shadow(config.shards);
  const auto tick_ms = [&config](std::uint64_t ticks) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::nanoseconds(static_cast<std::int64_t>(ticks) *
                                 config.process.tick.count()));
  };
  const auto on_shard = [&sc, det](std::size_t s, std::function<void()> body) {
    if (det) {
      body();
    } else {
      FAUST_CHECK(exec::post_sync(sc.shard_exec(s), body));
    }
  };
  const auto apply_plan = [&](std::size_t s, const net::FaultPlan& plan) {
    if (sock::SocketTransport* t = sc.shard_transport(s)) {
      // schedule.h documents the mapping: latency shapes the receive
      // path; probabilistic drop becomes one mid-frame reset (TCP owns
      // per-packet loss; what the protocol sees is a dead connection).
      {
        std::lock_guard lock(chaos_mu);
        chaos_shadow[s].rx_latency = tick_ms(plan.extra_delay + plan.jitter);
        t->set_chaos(chaos_shadow[s]);
      }
      if (plan.drop > 0) t->inject_reset();
      return;
    }
    on_shard(s, [&sc, s, plan] { sc.shard(s).net().set_fault_plan(plan); });
  };

  // Process-shard restarts run on these (see ScenarioConfig::process);
  // declared after `sc` so the join-on-unwind happens while it is alive.
  std::vector<std::thread> restarters;
  struct JoinRestarters {
    std::vector<std::thread>& threads;
    ~JoinRestarters() {
      for (auto& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } join_restarters{restarters};

  std::vector<std::unique_ptr<api::Store>> kv;
  for (ClientId i = 1; i <= config.workload.n_writers; ++i) {
    kv.push_back(api::open_store(sc, i));
  }

  // The baseline storm starts BEFORE the first op: every shard's fabric
  // carries the plan for the whole run (mid-run changes go through
  // ChaosEvents).
  if (config.fault_plan.active()) {
    for (std::size_t s = 0; s < config.shards; ++s) apply_plan(s, config.fault_plan);
  }

  ScenarioResult result;
  WorkloadGenerator gen(config.workload);

  // Restart bookkeeping, written from restart callbacks (which run on a
  // shard's thread in threaded mode).
  std::atomic<int> restarts_done{0};
  std::atomic<int> restarts_snapshot{0};
  std::atomic<std::uint64_t> recovery_ns{0};

  // Partition-heal bookkeeping: process-shard partitions heal on
  // dedicated threads (like restarts); the merged fan-out below must not
  // run into a still-blackholed shard.
  std::atomic<int> heals_done{0};
  int heals_expected = 0;

  std::vector<double> latencies;
  latencies.reserve(config.workload.n_ops);
  const auto op_timeout = std::chrono::milliseconds(config.op_budget_ms);

  for (std::uint64_t i = 0; i < config.workload.n_ops; ++i) {
    const Op op = gen.next();
    const std::string key = key_name(op.key);
    api::Store& client = *kv[static_cast<std::size_t>(op.writer - 1)];

    std::atomic<bool> done{false};
    const auto mark_done = [&done](const auto&) { done.store(true, std::memory_order_release); };
    const auto begin = std::chrono::steady_clock::now();
    switch (op.kind) {
      case Op::Kind::kPut:
        ++result.puts;
        client.put(key, op.value, mark_done);
        break;
      case Op::Kind::kGet:
        ++result.reads;
        client.get(key, mark_done);
        break;
      case Op::Kind::kErase:
        client.erase(key, mark_done);
        break;
    }

    // Kill events fire with the op already in flight: if it was routed to
    // the killed shard, its SUBMIT (or the REPLY) is dropped by the epoch
    // fence, and completion requires the full recover-reconnect-resume
    // path — exactly what the scenario is here to exercise.
    for (const KillEvent& kill : config.kills) {
      if (kill.at_op != i) continue;
      FAUST_CHECK(kill.shard < config.shards);
      sc.kill_shard(kill.shard);
      if (sc.process_shard(kill.shard)) {
        // A process restart blocks on the respawned worker's READY line
        // and then post_syncs the client reconnect onto the shard's
        // runtime — so it cannot run as an after() timer ON that runtime
        // (it would deadlock against itself). A dedicated thread serves
        // the downtime in real time instead: `downtime` is in executor
        // ticks, and the runtime paces one tick per process.tick.
        const auto downtime = std::chrono::nanoseconds(
            static_cast<std::int64_t>(kill.downtime) * config.process.tick.count());
        restarters.emplace_back([&sc, downtime, shard_idx = kill.shard, &restarts_done,
                                 &recovery_ns] {
          std::this_thread::sleep_for(downtime);
          const auto t0 = std::chrono::steady_clock::now();
          sc.restart_shard(shard_idx);
          const auto t1 = std::chrono::steady_clock::now();
          recovery_ns.fetch_add(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
          restarts_done.fetch_add(1);
        });
        continue;
      }
      Cluster& cluster = sc.shard(kill.shard);
      sc.shard_exec(kill.shard).after(
          kill.downtime,
          [&cluster, &restarts_done, &restarts_snapshot, &recovery_ns] {
            // Already on the shard's executor (its thread in threaded
            // mode): recover directly — post_sync from here would
            // deadlock against ourselves.
            const auto t0 = std::chrono::steady_clock::now();
            cluster.restart_server();
            const auto t1 = std::chrono::steady_clock::now();
            recovery_ns.fetch_add(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
            if (cluster.pserver()->recovered_from_snapshot()) {
              restarts_snapshot.fetch_add(1);
            }
            restarts_done.fetch_add(1);
          });
    }

    // Partition and chaos events ride the same fire-after-issue rule as
    // kills: the in-flight op may be aimed straight into the cut and must
    // survive on retransmission once the channel heals.
    for (const PartitionEvent& part : config.partitions) {
      if (part.at_op != i) continue;
      FAUST_CHECK(part.shard < config.shards);
      if (sock::SocketTransport* t = sc.shard_transport(part.shard)) {
        {
          std::lock_guard lock(chaos_mu);
          chaos_shadow[part.shard].blackhole.insert(kServerNode);
          t->set_chaos(chaos_shadow[part.shard]);
        }
        ++heals_expected;
        restarters.emplace_back([&chaos_mu, &chaos_shadow, &heals_done, t,
                                 shard_idx = part.shard, hold = tick_ms(part.duration)] {
          std::this_thread::sleep_for(hold);
          {
            std::lock_guard lock(chaos_mu);
            chaos_shadow[shard_idx].blackhole.erase(kServerNode);
            t->set_chaos(chaos_shadow[shard_idx]);
          }
          heals_done.fetch_add(1);
        });
        continue;
      }
      Cluster& cluster = sc.shard(part.shard);
      const auto writers = static_cast<ClientId>(config.workload.n_writers);
      on_shard(part.shard, [&cluster, writers, symmetric = part.symmetric] {
        net::Network& net = cluster.net();
        for (ClientId c = 1; c <= writers; ++c) {
          net.partition(c, kServerNode);
          if (symmetric) net.partition(kServerNode, c);
        }
      });
      sc.shard_exec(part.shard)
          .after(part.duration, [&cluster, writers, symmetric = part.symmetric] {
            net::Network& net = cluster.net();
            for (ClientId c = 1; c <= writers; ++c) {
              net.heal(c, kServerNode);
              if (symmetric) net.heal(kServerNode, c);
            }
          });
    }
    for (const ChaosEvent& ev : config.chaos) {
      if (ev.at_op != i) continue;
      FAUST_CHECK(ev.shard < config.shards);
      apply_plan(ev.shard, ev.plan);
    }

    if (!sc.await(done, op_timeout)) {
      result.complete = false;
      result.ops = i;
      result.any_failed = true;  // a hung op is a failed scenario
      return result;
    }
    const auto end = std::chrono::steady_clock::now();
    latencies.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count()) /
        1000.0);
  }
  result.ops = config.workload.n_ops;

  // Wait out any restart or partition heal still pending (its event came
  // so late no subsequent op needed the shard); the merged fan-out below
  // needs every shard up and reachable.
  while (restarts_done.load(std::memory_order_acquire) <
             static_cast<int>(config.kills.size()) ||
         heals_done.load(std::memory_order_acquire) < heals_expected) {
    if (det) {
      sc.sched().step();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  if (det && config.drain_time > 0) {
    sc.run_for(config.drain_time);  // probes converge the stability cuts
  }

  std::atomic<bool> listed{false};
  api::ListResult merged;
  // Bypass the cache: the merged view is the authoritative engine state
  // the crash and cache differential oracles compare.
  kv[0]->list(
      [&](const api::ListResult& r) {
        merged = r;
        listed.store(true, std::memory_order_release);
      },
      /*bypass_cache=*/true);
  if (!sc.await(listed, op_timeout)) {
    result.complete = false;
    result.any_failed = true;
    return result;
  }
  result.merged = std::move(merged.entries);
  result.merged_complete = merged.complete;
  result.merged_digest = merged_view_digest(result.merged);

  if (det) {
    for (std::size_t s = 0; s < config.shards; ++s) {
      result.shard_stable.push_back(kv[0]->stable_ts(s));
    }
  }

  result.complete = true;
  result.any_failed = sc.any_failed();
  result.restarts = restarts_done.load();
  result.restarts_from_snapshot = restarts_snapshot.load();
  result.recovery_ms_total = static_cast<double>(recovery_ns.load()) / 1e6;

  std::sort(latencies.begin(), latencies.end());
  result.p50_us = percentile(latencies, 0.50);
  result.p99_us = percentile(latencies, 0.99);
  result.max_us = latencies.empty() ? 0 : latencies.back();

  // Durability counters, read at quiescence (every op completed, every
  // restart done). Threaded mode: the clients above are about to go
  // quiet; shard threads only tick timers now. Process shards report
  // theirs over the STATS line of a graceful worker shutdown — which is
  // why this runs only after the merged fan-out is in hand.
  for (std::size_t s = 0; s < config.shards; ++s) {
    const storage::PersistentServer* ps = sc.shard(s).pserver();
    if (ps == nullptr) continue;
    const auto read = [&result, ps] {
      result.snapshots_written += ps->snapshots_written();
      result.snapshots_rejected += ps->snapshots_rejected();
      result.duplicate_replies += ps->duplicate_replies();
      result.wal_records += ps->wal_records();
    };
    if (det) {
      read();
    } else {
      // The shard's runtime thread still appends WAL records on timers
      // (quiescent means no ops in flight, not a stopped clock), so the
      // read must serialize onto that thread.
      FAUST_CHECK(exec::post_sync(sc.shard_exec(s), read));
    }
  }
  // Socket-level totals from the process shards' transports (counters are
  // any-thread safe; the transports live until `sc` dies).
  for (std::size_t s = 0; s < config.shards; ++s) {
    if (sock::SocketTransport* t = sc.shard_transport(s)) {
      result.wire_payload_bytes += t->total().bytes;
      result.submit_payload_bytes +=
          t->total_for(static_cast<std::uint8_t>(ustor::MsgType::kSubmit)).bytes +
          t->total_for(static_cast<std::uint8_t>(ustor::MsgType::kSubmitDelta)).bytes;
      const sock::WireStats w = t->wire();
      result.wire_socket_bytes += w.socket_bytes_out + w.socket_bytes_in;
      result.wire_framing_bytes += w.framing_bytes_out;
      result.wire_reconnects += w.reconnects;
      result.chaos_blackholed += w.chaos_blackholed;
      result.chaos_delayed += w.chaos_delayed;
      result.chaos_resets += w.chaos_resets;
    }
  }

  // D10 chaos + resilience counters (same quiescence rules as the
  // durability reads above). Retransmit counters live on the in-process
  // FaustClients in every mode; fabric chaos stats only exist where the
  // shard owns a simulated Network.
  for (std::size_t s = 0; s < config.shards; ++s) {
    Cluster& cluster = sc.shard(s);
    const auto read = [&result, &cluster,
                       writers = static_cast<ClientId>(config.workload.n_writers)] {
      if (!cluster.external_transport()) {
        const net::ChaosStats& cs = cluster.net().chaos();
        result.chaos_dropped += cs.dropped;
        result.chaos_duplicated += cs.duplicated;
        result.chaos_reordered += cs.reordered;
        result.chaos_partition_dropped += cs.partition_dropped;
      }
      for (ClientId c = 1; c <= writers; ++c) {
        result.retransmits += cluster.client(c).retransmits();
      }
    };
    if (det) {
      read();
    } else {
      FAUST_CHECK(exec::post_sync(sc.shard_exec(s), read));
    }
  }

  if (sc.procs() != nullptr) {
    for (const auto& stats : sc.finalize_processes()) {
      if (!stats) continue;
      result.snapshots_written += stats->snapshots_written;
      result.snapshots_rejected += stats->snapshots_rejected;
      result.duplicate_replies += stats->duplicate_replies;
      result.wal_records += stats->wal_records;
    }
    result.restarts_from_snapshot += sc.procs()->restarts_from_snapshot();
  }

  // Cache effectiveness, aggregated over every (client, shard) engine.
  for (const auto& client : kv) {
    for (std::size_t s = 0; s < config.shards; ++s) {
      const kv::KvClient& engine = client->shard_kv(s);
      result.registers_cache_served += engine.registers_cache_served();
      result.registers_engine_read += engine.registers_engine_read();
      result.snapshots_cached += engine.snapshots_cached();
      result.snapshots_total += engine.snapshots_total();
    }
  }
  const std::uint64_t resolved =
      result.registers_cache_served + result.registers_engine_read;
  if (resolved > 0) {
    result.cache_hit_rate =
        static_cast<double>(result.registers_cache_served) / static_cast<double>(resolved);
  }
  return result;
}

}  // namespace faust::scenario
