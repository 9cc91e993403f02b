// Crash-durability integration tests (DESIGN.md D7): transient server
// crashes with epoch-fenced in-flight traffic, snapshot-based recovery
// re-verified through the chunk-tree digest, Byzantine-disk fallback to
// log replay, exactly-once resume of in-flight client operations, and
// kill/restart of whole shards in both execution modes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/store.h"
#include "common/rng.h"
#include "crypto/chunked_hasher.h"
#include "crypto/signature.h"
#include "faust/cluster.h"
#include "net/network.h"
#include "shard/sharded_cluster.h"
#include "sim/scheduler.h"
#include "storage/persistent_server.h"
#include "ustor/client.h"
#include "ustor/state_codec.h"

namespace faust {
namespace {

/// Fresh temp directory per test; removed recursively on destruction.
struct TempDirFixture {
  std::string path;
  explicit TempDirFixture(const std::string& tag) {
    path = std::string(::testing::TempDir()) + "/faust_crash_" + tag + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDirFixture() { std::filesystem::remove_all(path); }
};

// --- Exactly-once resume at the protocol layer ----------------------------

TEST(CrashRecovery, DuplicateSubmitServedFromReplyCache) {
  // The server crashes after processing (and logging) a SUBMIT but before
  // its REPLY is delivered. The reconnecting client resends the identical
  // SUBMIT; the recovered server must recognise the duplicate (the submit
  // timestamp doubles as a per-client sequence number) and serve the
  // CACHED original reply — reprocessing would append a second L entry
  // and trip the client's self-concurrency check.
  constexpr int kN = 2;
  TempDirFixture dir("dup");
  sim::Scheduler sched;
  net::Network net(sched, Rng(3), net::DelayModel{1, 1});
  auto sigs = crypto::make_hmac_scheme(kN);
  auto server = std::make_unique<storage::PersistentServer>(kN, net, dir.path,
                                                            storage::DurabilityOptions{});
  ustor::Client c1(1, kN, sigs, net);
  ustor::Client c2(2, kN, sigs, net);

  bool done = false;
  c1.writex(to_bytes("first"), [&done](const ustor::WriteResult&) { done = true; });
  while (!done && sched.step()) {
  }
  ASSERT_TRUE(done);
  sched.run();  // drain the trailing COMMIT into the log

  done = false;
  c1.writex(to_bytes("in-flight"), [&done](const ustor::WriteResult&) { done = true; });
  const std::uint64_t before = server->wal_records();
  while (server->wal_records() == before && sched.step()) {
  }
  ASSERT_GT(server->wal_records(), before) << "SUBMIT must be logged";
  ASSERT_FALSE(done) << "the REPLY must still be in flight";

  net.kill(kServerNode);  // drops the undelivered REPLY via the epoch fence
  server.reset();
  sched.run();

  server = std::make_unique<storage::PersistentServer>(kN, net, dir.path,
                                                       storage::DurabilityOptions{});
  EXPECT_GT(server->recovered_records(), 0u);
  c1.resubmit();
  while (!done && sched.step()) {
  }
  ASSERT_TRUE(done) << "the resumed op must complete";
  EXPECT_EQ(server->duplicate_replies(), 1u)
      << "the resent SUBMIT must be served from the cache, not reprocessed";
  sched.run();

  // The value is durable and visible; nobody fired fail_i.
  done = false;
  ustor::Value v;
  c2.readx(1, [&](const ustor::ReadResult& r) {
    v = ustor::to_owned(r.value);
    done = true;
  });
  while (!done && sched.step()) {
  }
  ASSERT_TRUE(done);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(*v), "in-flight");
  EXPECT_FALSE(c1.failed());
  EXPECT_FALSE(c2.failed());
}

// --- Delta-served replies survive recovery byte for byte -------------------

/// Forwards deliveries to `target` and keeps, per sender, the most recent
/// message other than a COMMIT — spliced in front of a client (replies)
/// or the server (submits) to read the live traffic without touching the
/// protocol.
struct Tap : net::Node {
  net::Node* target = nullptr;
  std::map<NodeId, Bytes> last;
  void keep(NodeId from, BytesView msg) {
    if (ustor::peek_type(msg) != ustor::MsgType::kCommit) last[from] = Bytes(msg.begin(), msg.end());
  }
  void on_message(NodeId from, BytesView msg) override {
    keep(from, msg);
    target->on_message(from, msg);
  }
  void on_shared_message(NodeId from, const std::shared_ptr<const Bytes>& msg) override {
    keep(from, BytesView(*msg));
    target->on_shared_message(from, msg);
  }
};

TEST(CrashRecovery, DeltaRepliesSurviveRecoveryByteForByte) {
  // Durable shards serve advertised-base reads as REPLY_DELTA from each
  // register's splice history. After a kill, recovery recomputes the
  // replies of the log suffix; those must equal the live bytes, or a
  // client resending its last SUBMIT gets an echo it has never seen —
  // which the reply-fingerprint check takes for fork evidence. The
  // history crosses the snapshot here (delta d3 before it, d4 after it,
  // and client 2's read splices both), so the snapshot must carry it.
  constexpr int kN = 3;
  TempDirFixture dir("delta_echo");
  sim::Scheduler sched;
  net::Network net(sched, Rng(21), net::DelayModel{1, 3});
  auto sigs = crypto::make_hmac_scheme(kN);
  auto server = std::make_unique<storage::PersistentServer>(kN, net, dir.path,
                                                            storage::DurabilityOptions{});
  std::vector<std::unique_ptr<ustor::Client>> clients;
  std::vector<std::unique_ptr<Tap>> reply_taps;
  for (ClientId i = 1; i <= kN; ++i) {
    clients.push_back(std::make_unique<ustor::Client>(
        i, kN, sigs, net, kServerNode, 4096, ustor::DigestMode::kChunked, /*wire_deltas=*/true));
    reply_taps.push_back(std::make_unique<Tap>());
    reply_taps.back()->target = clients.back().get();
    net.attach(i, *reply_taps.back());
  }
  Tap submit_tap;
  submit_tap.target = server.get();
  net.attach(kServerNode, submit_tap);
  const auto client = [&](ClientId i) -> ustor::Client& {
    return *clients[static_cast<std::size_t>(i - 1)];
  };

  const auto run_until = [&](const bool& done) {
    while (!done && sched.step()) {
    }
    ASSERT_TRUE(done);
    sched.run();  // drain the trailing COMMIT
  };
  const auto read = [&](ClientId i, ClientId j) {
    bool done = false;
    client(i).readx(j, [&](const ustor::ReadResult&) { done = true; });
    run_until(done);
  };
  Bytes value(4096, 0);
  for (std::size_t k = 0; k < value.size(); ++k) value[k] = static_cast<std::uint8_t>(k * 7);
  const auto full_write = [&] {
    bool done = false;
    client(1).writex(value, [&](const ustor::WriteResult&) { done = true; });
    run_until(done);
  };
  // One small in-place edit of writer 1's value, shipped as SUBMIT_DELTA.
  const auto delta_write = [&](std::size_t offset, std::uint8_t fill) {
    const crypto::Hash base = crypto::ChunkedHasher::digest(value);
    std::vector<ustor::Splice> splices{ustor::Splice{offset, 8, Bytes(8, fill)}};
    std::fill_n(value.begin() + static_cast<std::ptrdiff_t>(offset), 8, fill);
    bool done = false;
    client(1).writex_delta(base, crypto::ChunkedHasher::digest(value), value.size(),
                           std::move(splices), [&](const ustor::WriteResult&) { done = true; });
    run_until(done);
  };

  full_write();
  delta_write(100, 0xa1);
  read(2, 1);  // client 2's verified base: the value after d1
  read(3, 1);
  delta_write(2000, 0xa2);  // d2
  delta_write(3000, 0xa3);  // d3: in the history the snapshot must carry
  ASSERT_TRUE(server->force_snapshot());
  delta_write(500, 0xa4);  // d4: logged after the snapshot
  read(2, 1);              // spliced REPLY_DELTA: d2 + d3 + d4 (suffix)
  read(3, 1);              // the same runs for client 3
  read(3, 1);              // "unchanged" token (suffix)

  const auto tag = [](const Bytes& b) { return ustor::peek_type(BytesView(b)); };
  std::map<ClientId, Bytes> live_reply;
  std::map<ClientId, Bytes> last_submit;
  for (ClientId i = 1; i <= kN; ++i) {
    live_reply[i] = reply_taps[static_cast<std::size_t>(i - 1)]->last.at(kServerNode);
    last_submit[i] = submit_tap.last.at(i);
  }
  ASSERT_EQ(tag(live_reply[1]), ustor::MsgType::kReply);       // d4's REPLY
  ASSERT_EQ(tag(live_reply[2]), ustor::MsgType::kReplyDelta);  // spliced
  ASSERT_EQ(tag(live_reply[3]), ustor::MsgType::kReplyDelta);  // unchanged
  ASSERT_GT(live_reply[2].size(), live_reply[3].size())
      << "client 2's reply must carry splice runs, client 3's the O(1) token";

  net.kill(kServerNode);
  server.reset();
  sched.run();

  // Two recoveries of the same history: the log alone, and the snapshot
  // plus the log suffix.
  const std::string log_only = dir.path + "/log_only";
  std::filesystem::create_directories(log_only);
  std::filesystem::copy_file(dir.path + "/wal.log", log_only + "/wal.log");
  for (const std::string& path : {log_only, dir.path}) {
    SCOPED_TRACE(path);
    server = std::make_unique<storage::PersistentServer>(kN, net, path,
                                                         storage::DurabilityOptions{});
    EXPECT_EQ(server->recovered_from_snapshot(), path == dir.path);
    submit_tap.target = server.get();
    net.attach(kServerNode, submit_tap);
    for (ClientId i = 1; i <= kN; ++i) {
      const std::uint64_t dropped = client(i).stale_replies_dropped();
      reply_taps[static_cast<std::size_t>(i - 1)]->last.clear();
      net.send(i, kServerNode, last_submit[i]);  // the client's op, resent
      sched.run();
      const auto& seen = reply_taps[static_cast<std::size_t>(i - 1)]->last;
      ASSERT_TRUE(seen.count(kServerNode)) << "client " << i << " got no echo";
      EXPECT_EQ(seen.at(kServerNode), live_reply[i]) << "client " << i;
      // The op already completed: the echo is a timing artifact the client
      // drops, never evidence.
      EXPECT_EQ(client(i).stale_replies_dropped(), dropped + 1) << "client " << i;
      EXPECT_FALSE(client(i).failed()) << "client " << i;
    }
    EXPECT_EQ(server->duplicate_replies(), static_cast<std::uint64_t>(kN));
    net.kill(kServerNode);
    server.reset();
    sched.run();
  }
}

// --- Snapshot recovery ----------------------------------------------------

TEST(CrashRecovery, SnapshotRecoveryMatchesFullReplay) {
  // The same on-disk history recovered two ways — verified snapshot plus
  // log suffix, and full log replay — must yield byte-identical protocol
  // state (the canonical state-codec image makes this one comparison).
  constexpr int kN = 2;
  TempDirFixture dir("equiv");
  sim::Scheduler sched;
  net::Network net(sched, Rng(11), net::DelayModel{1, 4});
  auto sigs = crypto::make_hmac_scheme(kN);
  ustor::Client c1(1, kN, sigs, net);
  ustor::Client c2(2, kN, sigs, net);

  {
    storage::PersistentServer server(kN, net, dir.path, storage::DurabilityOptions{});
    const auto write_sync = [&](ustor::Client& c, std::string_view v) {
      bool done = false;
      c.writex(to_bytes(v), [&done](const ustor::WriteResult&) { done = true; });
      while (!done && sched.step()) {
      }
      ASSERT_TRUE(done);
    };
    write_sync(c1, "alpha");
    write_sync(c2, "beta");
    write_sync(c1, "gamma");
    sched.run();
    ASSERT_TRUE(server.force_snapshot());

    // A couple more ops AFTER the snapshot, so recovery exercises the
    // snapshot + suffix path, not snapshot-only.
    write_sync(c2, "delta");
    sched.run();
    net.kill(kServerNode);
  }

  Bytes via_snapshot;
  std::size_t suffix_records = 0;
  {
    storage::PersistentServer server(kN, net, dir.path, storage::DurabilityOptions{});
    EXPECT_TRUE(server.recovered_from_snapshot());
    suffix_records = server.recovered_records();
    via_snapshot = ustor::encode_server_state(server.core());
    net.kill(kServerNode);
  }
  ASSERT_TRUE(std::filesystem::remove(dir.path + "/snapshot.bin"));
  Bytes via_replay;
  {
    storage::PersistentServer server(kN, net, dir.path, storage::DurabilityOptions{});
    EXPECT_FALSE(server.recovered_from_snapshot());
    EXPECT_GT(server.recovered_records(), suffix_records)
        << "full replay must deliver more records than the suffix";
    via_replay = ustor::encode_server_state(server.core());
    net.kill(kServerNode);
  }
  EXPECT_EQ(via_snapshot, via_replay)
      << "snapshot + suffix and full replay must reach identical state";
}

TEST(CrashRecovery, TamperedSnapshotRejectedFallsBackToLogReplay) {
  // Byzantine disk: a snapshot whose payload was altered under its stored
  // chunk-tree root must be REJECTED at restart (the root re-verification
  // is the same ChunkedHasher machinery the wire verifiers use), and
  // recovery must fall back to full log replay — reaching correct state,
  // with the rejection surfaced in a counter. Clients never notice.
  constexpr int kN = 2;
  TempDirFixture dir("tamper");
  sim::Scheduler sched;
  net::Network net(sched, Rng(23), net::DelayModel{1, 4});
  auto sigs = crypto::make_hmac_scheme(kN);
  ustor::Client c1(1, kN, sigs, net);
  ustor::Client c2(2, kN, sigs, net);

  std::vector<ustor::ScheduledOp> schedule_before;
  {
    storage::DurabilityOptions opts;
    opts.snapshot_every = 2;
    storage::PersistentServer server(kN, net, dir.path, opts);
    for (int i = 0; i < 4; ++i) {
      bool done = false;
      c1.writex(to_bytes("value-" + std::to_string(i)),
                [&done](const ustor::WriteResult&) { done = true; });
      while (!done && sched.step()) {
      }
      ASSERT_TRUE(done);
      sched.run();
    }
    ASSERT_GE(server.snapshots_written(), 1u);
    schedule_before = server.core().schedule();
    net.kill(kServerNode);
  }

  // Flip one payload byte of the snapshot; the stored root is now stale.
  const std::string snap_path = dir.path + "/snapshot.bin";
  {
    std::FILE* f = std::fopen(snap_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }

  storage::PersistentServer server(kN, net, dir.path, storage::DurabilityOptions{});
  EXPECT_EQ(server.snapshots_rejected(), 1u) << "the tampered snapshot must be refused";
  EXPECT_FALSE(server.recovered_from_snapshot());
  EXPECT_GT(server.recovered_records(), 0u) << "fallback is full log replay";
  EXPECT_EQ(server.core().schedule(), schedule_before)
      << "replay must reconstruct the exact schedule despite the bad snapshot";

  // The deployment keeps working: fail-awareness evidence (memos, COMMIT
  // chain) is intact, reads see the last value, no fail_i.
  bool done = false;
  ustor::Value v;
  c2.readx(1, [&](const ustor::ReadResult& r) {
    v = ustor::to_owned(r.value);
    done = true;
  });
  while (!done && sched.step()) {
  }
  ASSERT_TRUE(done);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(*v), "value-3");
  EXPECT_FALSE(c1.failed());
  EXPECT_FALSE(c2.failed());
}

// --- Cluster-level crash/restart ------------------------------------------

TEST(CrashRecovery, ClusterCrashRestartMidOpResumesExactlyOnce) {
  // A full FAUST deployment: the server dies with a write in flight and
  // comes back after a downtime; the op must resume and complete against
  // the recovered server, with fail-awareness preserved throughout.
  TempDirFixture dir("cluster");
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 7;
  cfg.durability_dir = dir.path;
  cfg.durability.snapshot_every = 4;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cl(cfg);
  ASSERT_TRUE(cl.durable());
  ASSERT_NE(cl.pserver(), nullptr);
  ASSERT_EQ(cl.server(), nullptr);

  ASSERT_GT(cl.write(1, "pre-crash"), 0u);
  ASSERT_GT(cl.write(2, "other-writer"), 0u);

  bool done = false;
  Timestamp ts = 0;
  cl.client(1).write(to_bytes("mid-op"), [&](Timestamp t) {
    ts = t;
    done = true;
  });
  cl.run_for(1);  // the SUBMIT is now in flight (or just processed)
  cl.crash_server();
  EXPECT_FALSE(cl.server_up());

  cl.exec().after(2'000, [&] { cl.restart_server(); });
  std::size_t steps = 0;
  while (!done && steps < 1'000'000 && cl.sched().step()) ++steps;
  ASSERT_TRUE(done) << "in-flight write must resume across the restart";
  EXPECT_GT(ts, 0u);
  EXPECT_TRUE(cl.server_up());

  bool completed = false;
  const ustor::Value v = cl.read(2, 1, &completed);
  ASSERT_TRUE(completed);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(*v), "mid-op");
  EXPECT_FALSE(cl.any_failed());
}

TEST(CrashRecovery, RepeatedCrashesWithSnapshotsStayConsistent) {
  // Several crash/restart cycles with a tight snapshot cadence: later
  // recoveries must come from a snapshot (bounded replay), and the
  // register history must survive every cycle.
  TempDirFixture dir("cycles");
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 13;
  cfg.durability_dir = dir.path;
  cfg.durability.snapshot_every = 3;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cl(cfg);

  for (int round = 0; round < 3; ++round) {
    ASSERT_GT(cl.write(1, "round-" + std::to_string(round)), 0u);
    ASSERT_GT(cl.write(2, "peer-" + std::to_string(round)), 0u);
    cl.run_for(1'000);  // drain COMMITs
    cl.crash_server();
    cl.run_for(500);  // downtime; anything in flight is dropped
    cl.restart_server();
  }
  EXPECT_TRUE(cl.pserver()->recovered_from_snapshot())
      << "with snapshot_every=3 the later recoveries must use the snapshot";

  bool completed = false;
  const ustor::Value v = cl.read(1, 2, &completed);
  ASSERT_TRUE(completed);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(*v), "peer-2");
  EXPECT_FALSE(cl.any_failed());
}

// --- Shard-level kill/restart ---------------------------------------------

std::string key_on_shard(const shard::ShardedCluster& sc, std::size_t shard) {
  for (int k = 0;; ++k) {
    const std::string key = "skey-" + std::to_string(k);
    if (sc.router().shard_of(key) == shard) return key;
  }
}

TEST(CrashRecovery, ShardKillRestartDeterministic) {
  TempDirFixture dir("shard_det");
  shard::ShardedClusterConfig cfg;
  cfg.shards = 2;
  cfg.seed = 19;
  cfg.durability_root = dir.path;
  cfg.shard_template.n = 2;
  cfg.shard_template.durability.snapshot_every = 4;
  cfg.shard_template.faust.dummy_read_period = 0;
  cfg.shard_template.faust.probe_check_period = 0;
  shard::ShardedCluster sc(cfg);
  ASSERT_TRUE(sc.durable());
  auto kv1 = api::open_store(sc, 1);

  const std::string k0 = key_on_shard(sc, 0);
  const std::string k1 = key_on_shard(sc, 1);

  bool done = false;
  kv1->put(k0, "on-0", [&](const api::PutResult&) { done = true; });
  ASSERT_TRUE(sc.drive(done));
  done = false;
  kv1->put(k1, "on-1", [&](const api::PutResult&) { done = true; });
  ASSERT_TRUE(sc.drive(done));

  // Kill shard 0 with a put to it in flight; restart after a downtime.
  done = false;
  kv1->put(k0, "across-crash", [&](const api::PutResult&) { done = true; });
  sc.kill_shard(0);
  EXPECT_FALSE(sc.shard_up(0));
  sc.shard_exec(0).after(3'000, [&] { sc.shard(0).restart_server(); });
  ASSERT_TRUE(sc.drive(done, 4'000'000)) << "put must ride through the restart";
  EXPECT_TRUE(sc.shard_up(0));

  // The healthy shard was untouched; the restarted one serves its keys.
  done = false;
  api::ListResult lr;
  kv1->list([&](const api::ListResult& r) {
    lr = r;
    done = true;
  });
  ASSERT_TRUE(sc.drive(done));
  EXPECT_TRUE(lr.complete);
  ASSERT_TRUE(lr.entries.contains(k0));
  EXPECT_EQ(lr.entries.at(k0).value, "across-crash");
  ASSERT_TRUE(lr.entries.contains(k1));
  EXPECT_EQ(lr.entries.at(k1).value, "on-1");
  EXPECT_FALSE(sc.any_failed());
}

TEST(CrashRecovery, ShardKillRestartThreadedSmoke) {
  TempDirFixture dir("shard_thr");
  shard::ShardedClusterConfig cfg;
  cfg.shards = 2;
  cfg.seed = 29;
  cfg.mode = shard::ExecMode::kThreaded;
  cfg.durability_root = dir.path;
  cfg.shard_template.n = 2;
  cfg.shard_template.durability.snapshot_every = 4;
  cfg.shard_template.faust.dummy_read_period = 0;
  cfg.shard_template.faust.probe_check_period = 0;
  shard::ShardedCluster sc(cfg);
  auto kv1 = api::open_store(sc, 1);

  const std::string k0 = key_on_shard(sc, 0);
  std::atomic<bool> done{false};
  kv1->put(k0, "before", [&](const api::PutResult&) { done.store(true, std::memory_order_release); });
  ASSERT_TRUE(sc.await(done));

  // Quiescent kill + immediate restart, both through the cross-thread
  // post_sync path.
  sc.kill_shard(0);
  sc.restart_shard(0);

  done.store(false);
  kv1->put(k0, "after-restart",
          [&](const api::PutResult&) { done.store(true, std::memory_order_release); });
  ASSERT_TRUE(sc.await(done));

  done.store(false);
  api::GetResult got;
  kv1->get(k0, [&](const api::GetResult& r) {
    got = r;
    done.store(true, std::memory_order_release);
  });
  ASSERT_TRUE(sc.await(done));
  ASSERT_TRUE(got.entry.has_value());
  EXPECT_EQ(got.entry->value, "after-restart");
  EXPECT_FALSE(got.failed);
  sc.stop();
  EXPECT_FALSE(sc.any_failed());
}

}  // namespace
}  // namespace faust
