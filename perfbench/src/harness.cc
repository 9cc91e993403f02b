#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "cache/cache_node.h"
#include "exec/executor.h"
#include "sock/frame.h"
#include "ustor/messages.h"

namespace perfbench {

using namespace faust;

namespace {

constexpr std::uint8_t tag(ustor::MsgType t) { return static_cast<std::uint8_t>(t); }

/// Quiescence a deterministic deployment runs before the final listings.
constexpr sim::Time kSettleTicks = 10'000;

/// Total size of the files named `name` under `root`.
std::uint64_t files_named(const std::string& root, const char* name) {
  std::uint64_t total = 0;
  if (root.empty()) return total;
  for (const auto& e : std::filesystem::recursive_directory_iterator(root)) {
    if (e.is_regular_file() && e.path().filename() == name) total += e.file_size();
  }
  return total;
}

}  // namespace

std::uint64_t load_keys(Model& model, const StreamParams& params, std::uint64_t seed,
                        int writers, std::size_t batch, const ApplyFn& apply, Result& r) {
  std::uint64_t user_bytes = 0;
  for (int w = 1; w <= writers; ++w) {
    OpStream values(params, derive_seed(seed, 200 + static_cast<std::uint64_t>(w)));
    std::vector<faust::api::Op> ops;
    std::vector<Model::Handle> handles;
    const auto flush = [&] {
      if (ops.empty()) return;
      const faust::api::BatchResult res = apply(w, std::move(ops));
      const std::int64_t done = model.tick();
      if (!res.ok) r.fail("key load: apply() of writer " + std::to_string(w) + " failed");
      for (const auto& h : handles) model.complete(h, done);
      ops.clear();
      handles.clear();
    };
    for (auto k = static_cast<std::uint64_t>(w - 1); k < params.keys;
         k += static_cast<std::uint64_t>(writers)) {
      std::string v = values.value();
      user_bytes += key_name(k).size() + v.size();
      handles.push_back(model.put(w, k, v, model.tick()));
      ops.push_back(faust::api::Op::put(key_name(k), std::move(v)));
      if (ops.size() == batch) flush();
    }
    flush();
  }
  return user_bytes;
}

Counters read_counters(shard::ShardedCluster& sc, const std::string& root) {
  Counters c;
  c.submits.resize(sc.shards());
  if (!sc.threaded()) c.steps = sc.sched().executed();
  for (std::size_t s = 0; s < sc.shards(); ++s) {
    if (sock::SocketTransport* t = sc.shard_transport(s)) {
      const auto by_type = t->total_by_type();
      for (std::size_t k = 0; k < by_type.size(); ++k) {
        c.tag_bytes[k] += by_type[k].bytes;
        c.tag_msgs[k] += by_type[k].messages;
      }
      c.submits[s] = by_type[tag(ustor::MsgType::kSubmit)].messages +
                     by_type[tag(ustor::MsgType::kSubmitDelta)].messages;
      // The workers log every SUBMIT, SUBMIT_DELTA and COMMIT they process
      // (storage/persistent_server.h). Their own counters only arrive in
      // the STATS line at shutdown, so the records are counted on the wire.
      c.wal_records += c.submits[s] + by_type[tag(ustor::MsgType::kCommit)].messages;
      const sock::WireStats w = t->wire();
      // The transport counts payload where it is sent; the replies are
      // sent inside the workers, so inbound payload is the bytes read
      // minus the fixed framing of each data frame.
      c.msgs += t->total().messages;
      c.bytes += t->total().bytes + w.socket_bytes_in - w.frames_in * sock::kDataFrameOverhead;
      c.socket_bytes += w.socket_bytes_out + w.socket_bytes_in;
      c.socket_bytes_out += w.socket_bytes_out;
      c.framing_bytes += w.framing_bytes_out;
      c.frames_out += w.frames_out;
      c.reconnects += w.reconnects;
    } else {
      Cluster& sh = sc.shard(s);
      const net::Network& net = sh.net();
      c.msgs += net.total().messages;
      c.bytes += net.total().bytes;
      for (std::size_t k = 0; k < c.tag_bytes.size(); ++k) {
        c.tag_bytes[k] += net.total_for(static_cast<std::uint8_t>(k)).bytes;
        c.tag_msgs[k] += net.total_for(static_cast<std::uint8_t>(k)).messages;
      }
      c.submits[s] = net.total_for(tag(ustor::MsgType::kSubmit)).messages +
                     net.total_for(tag(ustor::MsgType::kSubmitDelta)).messages;
      if (storage::PersistentServer* ps = sh.pserver()) {
        c.wal_records += ps->wal_records();
        c.snapshots += ps->snapshots_written();
      }
      if (cache::CacheNode* cn = sh.cache_node()) {
        c.c_hits += cn->hits();
        c.c_unchanged += cn->unchanged_hits();
        c.c_negative += cn->negatives_served();
        c.c_misses += cn->misses();
        c.c_expired += cn->expirations();
        c.c_evicted += cn->evictions();
        c.c_rejected += cn->fills_rejected();
        c.c_arena += cn->arena_used();
      }
    }
    if (auto* rt = dynamic_cast<rt::ThreadedRuntime*>(&sc.shard_exec(s))) c.tasks += rt->executed();
    // Client-side protocol counters live on the shard's own thread.
    const auto clients = [&c, &sc, s] {
      Cluster& sh = sc.shard(s);
      for (ClientId i = 1; i <= sh.n(); ++i) {
        FaustClient& fc = sh.client(i);
        c.dummy += fc.dummy_reads();
        c.probes += fc.probes_sent();
        c.versions += fc.versions_received();
        const ustor::Client& e = fc.engine();
        c.vc_hits += e.verify_cache().hits();
        c.vc_misses += e.verify_cache().misses();
        c.d_adv += e.delta_reads_advertised();
        c.d_unchanged += e.delta_replies_unchanged();
        c.d_fallbacks += e.delta_fallbacks();
      }
    };
    if (sc.threaded()) {
      exec::post_sync(sc.shard_exec(s), clients);
    } else {
      clients();
    }
  }
  c.wal_bytes = files_named(root, "wal.log");
  return c;
}

void report_counter_layers(const Phase& ph, const std::string& root, std::uint64_t user_bytes,
                           const Options& opt, Result& r) {
  const Counters& a = ph.before;
  const Counters& b = ph.after;
  const double ops = static_cast<double>(ph.ops);
  const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };

  double max_sub = 0, sum_sub = 0;
  for (std::size_t s = 0; s < b.submits.size(); ++s) {
    max_sub = std::max(max_sub, d(a.submits[s], b.submits[s]));
    sum_sub += d(a.submits[s], b.submits[s]);
  }
  r.set("shard.load_skew", ratio(max_sub * static_cast<double>(b.submits.size()), sum_sub),
        "ratio");
  r.set("faust.background_ops_per_op", ratio(d(a.dummy, b.dummy) + d(a.probes, b.probes), ops),
        "count");
  r.set("faust.versions_per_op", ratio(d(a.versions, b.versions), ops), "count");
  r.set("ustor.delta_unchanged_share", ratio(d(a.d_unchanged, b.d_unchanged), d(a.d_adv, b.d_adv)),
        "ratio");
  r.set("ustor.delta_fallback_share", ratio(d(a.d_fallbacks, b.d_fallbacks), d(a.d_adv, b.d_adv)),
        "ratio");
  r.set("crypto.verify_cache_hit_rate",
        ratio(d(a.vc_hits, b.vc_hits), d(a.vc_hits, b.vc_hits) + d(a.vc_misses, b.vc_misses)),
        "ratio");
  r.set("crypto.verifies_per_op", ratio(d(a.vc_misses, b.vc_misses), ops), "count");

  r.set("net.msgs_per_op", ratio(d(a.msgs, b.msgs), ops), "count");
  const auto bytes_of = [&](ustor::MsgType t) {
    return ratio(d(a.tag_bytes[tag(t)], b.tag_bytes[tag(t)]), ops);
  };
  r.set("net.bytes_per_op.submit", bytes_of(ustor::MsgType::kSubmit), "B");
  r.set("net.bytes_per_op.submit_delta", bytes_of(ustor::MsgType::kSubmitDelta), "B");
  r.set("net.bytes_per_op.reply", bytes_of(ustor::MsgType::kReply), "B");
  r.set("net.bytes_per_op.reply_delta", bytes_of(ustor::MsgType::kReplyDelta), "B");
  r.set("net.bytes_per_op.commit", bytes_of(ustor::MsgType::kCommit), "B");
  r.set("sim.steps_per_op", ratio(d(a.steps, b.steps), ops), "count");

  if (!root.empty()) {
    // The WAL only grows (a snapshot does not truncate it), so its size
    // difference is what the phase logged.
    r.set("storage.wal_records_per_op", ratio(d(a.wal_records, b.wal_records), ops), "count");
    r.set("storage.wal_bytes_per_put",
          ratio(d(a.wal_bytes, b.wal_bytes), static_cast<double>(ph.puts)), "B");
    r.set("storage.snapshots_per_kop", ratio(d(a.snapshots, b.snapshots) * 1000.0, ops), "count");
    r.set("storage.snapshot_bytes",
          static_cast<double>(files_named(root, "snapshot.bin")) /
              static_cast<double>(b.submits.size()),
          "B");
    const double record = ratio(d(a.wal_bytes, b.wal_bytes), d(a.wal_records, b.wal_records));
    r.set("storage.append_us", time_log_append(opt.work_dir, static_cast<std::size_t>(record)),
          "us");
    r.set("storage.stored_bytes_per_user_byte",
          ratio(static_cast<double>(tree_bytes(root)), static_cast<double>(user_bytes)), "ratio");
  }

  const double served =
      d(a.c_hits, b.c_hits) + d(a.c_unchanged, b.c_unchanged) + d(a.c_negative, b.c_negative);
  r.set("cache.hit_rate", ratio(served, served + d(a.c_misses, b.c_misses)), "ratio");
  r.set("cache.stale_share",
        ratio(static_cast<double>(ph.stale), static_cast<double>(ph.cached_gets)), "ratio");
  r.set("cache.evictions_per_kop", ratio(d(a.c_evicted, b.c_evicted) * 1000.0, ops), "count");
  r.set("cache.expirations_per_kop", ratio(d(a.c_expired, b.c_expired) * 1000.0, ops), "count");
  r.set("cache.fills_rejected", d(a.c_rejected, b.c_rejected), "count");

  r.set("sock.socket_bytes_per_op", ratio(d(a.socket_bytes, b.socket_bytes), ops), "B");
  r.set("sock.framing_share",
        ratio(d(a.framing_bytes, b.framing_bytes), d(a.socket_bytes_out, b.socket_bytes_out)),
        "ratio");
  r.set("sock.reconnects", d(a.reconnects, b.reconnects), "count");
  if (b.reconnects != a.reconnects) r.fail("the socket transport reconnected during the run");
}

void measure_recovery(shard::ShardedCluster& sc, Result& r) {
  sc.kill_shard(0);
  const auto t0 = Clock::now();
  sc.restart_shard(0);
  r.set("storage.recovery_ms", us_between(t0, Clock::now()) / 1000.0, "ms");
  r.set("storage.recovered_records",
        static_cast<double>(sc.procs() != nullptr ? sc.procs()->info(0).records
                                                  : sc.shard(0).pserver()->recovered_records()),
        "count");
}

namespace {

/// The end-to-end metrics of an untraced phase; `setup_s` holds the
/// run's set-up times, and their median is reported.
void report_end_to_end(Phase& ph, const std::vector<double>& setup_s, Result& r) {
  const double ops = static_cast<double>(ph.ops);
  r.set("ops_per_cpu_s", ratio(ops, ph.cpu_s), "ops/s");
  ph.lat.report_calls(r);
  r.set("wire_bytes_per_op", ratio(static_cast<double>(ph.after.bytes - ph.before.bytes), ops),
        "B");
  r.set("stable_lag_ms_p50", lag_median(ph.lag_ms, ph.never_stable, r), "ms");
  r.set("setup_s", median(setup_s), "s");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", ratio(ops, ph.wall_s));
  r.note("ops_per_wall_s", buf);
  std::snprintf(buf, sizeof(buf), "%.1f", peak_rss_mb());
  r.note("peak_rss_mb", buf);
}

}  // namespace

void run_replicas(const Options& opt, bool same_ops, const ReplicaFn& replica, Result& r) {
  const int n = opt.fixed_ops > 0 ? 1 : kReplicas;
  const StealMeter steal;
  std::vector<double> setup_s;
  std::string per_replica;
  Phase best;
  std::uint64_t ops = opt.fixed_ops;
  for (int i = 0; i < n; ++i) {
    auto [setup, ph] = replica(i, opt.seconds / n, ops);
    setup_s.push_back(setup);
    if (same_ops) ops = ph.ops;
    r.attempted += ph.ops;
    r.failed += ph.failed;
    const double cpu_per_op = ratio(ph.cpu_s, static_cast<double>(ph.ops));
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.1f", i > 0 ? ", " : "", ratio(1.0, cpu_per_op));
    per_replica += buf;
    if (i == 0 || cpu_per_op < ratio(best.cpu_s, static_cast<double>(best.ops))) {
      best = std::move(ph);
    }
  }
  r.note("replica_ops_per_cpu_s", per_replica);
  r.note("steal_share", std::to_string(steal.share_since_start()));
  report_end_to_end(best, setup_s, r);
}

void final_check(shard::ShardedCluster& sc, const std::vector<std::unique_ptr<api::Store>>& stores,
                 const Model& model, Result& r) {
  if (!sc.threaded()) sc.run_for(kSettleTicks);
  std::vector<api::ListResult> lists;
  for (const auto& st : stores) lists.push_back(st->list().wait());
  if (sc.threaded()) sc.stop();
  for (const auto& st : stores) {
    if (st->any_failed()) r.fail("fail_i fired at client " + std::to_string(st->id()));
  }
  check_listings(model, lists, r);
}

void check_listings(const Model& model, const std::vector<faust::api::ListResult>& lists,
                    Result& r) {
  for (std::size_t i = 0; i < lists.size(); ++i) {
    if (!lists[i].complete) r.fail("list() of client " + std::to_string(i + 1) + " incomplete");
    if (i > 0 && !(lists[i] == lists[0])) {
      r.fail("list() of client " + std::to_string(i + 1) + " differs from client 1");
    }
  }
  if (lists.empty()) return;
  const auto& got = lists[0].entries;
  const auto expect = model.merged();
  if (got.size() != expect.size()) {
    r.fail("list() holds " + std::to_string(got.size()) + " keys, the model " +
           std::to_string(expect.size()));
  }
  int shown = 0;
  for (const auto& [key, e] : expect) {
    const auto it = got.find(key);
    const bool same = it != got.end() && it->second.value == e.value &&
                      it->second.writer == e.writer && it->second.seq == e.seq;
    if (same || shown++ >= 3) continue;
    r.fail("list() entry of " + key + " differs from the model: listed " +
           (it == got.end() ? std::string("nothing")
                            : "'" + it->second.value + "' writer " +
                                  std::to_string(it->second.writer) + " seq " +
                                  std::to_string(it->second.seq)) +
           ", model '" + e.value + "' writer " + std::to_string(e.writer) + " seq " +
           std::to_string(e.seq));
  }
}

std::string partition_size(const Model& model, int writers, std::size_t shards) {
  std::uint64_t entries = 0, bytes = 0;
  for (int w = 1; w <= writers; ++w) {
    for (const auto& [k, v] : model.partition_of(w, [](std::uint64_t) { return true; })) {
      ++entries;
      bytes += key_name(k).size() + v->size() + 8;  // key, value, seq
    }
  }
  const double parts = static_cast<double>(writers) * static_cast<double>(shards);
  char buf[120];
  std::snprintf(buf, sizeof(buf), "%.0f entries, %.0f B per writer per shard",
                static_cast<double>(entries) / parts, static_cast<double>(bytes) / parts);
  return buf;
}

}  // namespace perfbench
