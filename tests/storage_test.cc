// Durability substrate tests: CRC32 vectors, the write-ahead log's
// torn-tail recovery (fuzzed at every byte offset of the tail record),
// verified snapshots, exactly-once duplicate suppression, and full
// crash-recovery of the persistent USTOR server with clients that never
// notice.
#include <gtest/gtest.h>

#include <cstdio>
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache_wire.h"
#include "common/rng.h"
#include "crypto/chunked_hasher.h"
#include "crypto/signature.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "storage/crc32.h"
#include "storage/log_store.h"
#include "storage/persistent_server.h"
#include "storage/snapshot_store.h"
#include "ustor/client.h"
#include "ustor/state_codec.h"
#include "wire/encoder.h"

namespace faust::storage {
namespace {

/// Fresh temp path per test; removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& tag) {
    path = std::string(::testing::TempDir()) + "/faust_" + tag + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".log";
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

/// Fresh temp directory per test; removed recursively on destruction.
struct TempDirFixture {
  std::string path;
  explicit TempDirFixture(const std::string& tag) {
    path = std::string(::testing::TempDir()) + "/faust_dir_" + tag + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDirFixture() { std::filesystem::remove_all(path); }
};

Bytes read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  Bytes all(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(all.data(), 1, all.size(), f), all.size());
  std::fclose(f);
  return all;
}

void write_file(const std::string& path, BytesView content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!content.empty()) ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f), content.size());
  std::fclose(f);
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(to_bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);  // the check value
  EXPECT_EQ(crc32(to_bytes("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
}

TEST(Crc32, SensitiveToEveryByte) {
  const Bytes base = to_bytes("payload-payload-payload");
  const std::uint32_t ref = crc32(base);
  for (std::size_t k = 0; k < base.size(); ++k) {
    Bytes mod = base;
    mod[k] ^= 0x01;
    EXPECT_NE(crc32(mod), ref) << "byte " << k;
  }
}

TEST(LogStore, AppendReplayRoundtrip) {
  TempFile tmp("roundtrip");
  {
    LogStore log(tmp.path);
    EXPECT_TRUE(log.append(to_bytes("one")));
    EXPECT_TRUE(log.append(to_bytes("two")));
    EXPECT_TRUE(log.append(Bytes{}));  // empty records are legal
    EXPECT_EQ(log.records(), 3u);
  }
  LogStore log(tmp.path);
  std::vector<std::string> got;
  EXPECT_EQ(log.replay([&](BytesView b) { got.push_back(to_string(b)); }), 3u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "one");
  EXPECT_EQ(got[1], "two");
  EXPECT_EQ(got[2], "");
}

TEST(LogStore, AppendAfterReplayContinuesTheLog) {
  TempFile tmp("continue");
  {
    LogStore log(tmp.path);
    log.append(to_bytes("a"));
  }
  {
    LogStore log(tmp.path);
    log.replay([](BytesView) {});
    log.append(to_bytes("b"));
  }
  LogStore log(tmp.path);
  std::vector<std::string> got;
  log.replay([&](BytesView b) { got.push_back(to_string(b)); });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], "b");
}

TEST(LogStore, TornTailIsDiscarded) {
  TempFile tmp("torn");
  {
    LogStore log(tmp.path);
    log.append(to_bytes("intact-1"));
    log.append(to_bytes("intact-2"));
    log.append(to_bytes("this record will be torn"));
  }
  // Simulate a crash mid-write: chop the last 5 bytes off the file.
  {
    std::FILE* f = std::fopen(tmp.path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    Bytes all(static_cast<std::size_t>(size));
    std::fseek(f, 0, SEEK_SET);
    ASSERT_EQ(std::fread(all.data(), 1, all.size(), f), all.size());
    std::fclose(f);
    f = std::fopen(tmp.path.c_str(), "wb");
    std::fwrite(all.data(), 1, all.size() - 5, f);
    std::fclose(f);
  }
  LogStore log(tmp.path);
  std::vector<std::string> got;
  EXPECT_EQ(log.replay([&](BytesView b) { got.push_back(to_string(b)); }), 2u);
  EXPECT_EQ(got.back(), "intact-2");
  // The torn bytes were truncated; a new append lands cleanly.
  EXPECT_TRUE(log.append(to_bytes("after-recovery")));
  LogStore reread(tmp.path);
  got.clear();
  EXPECT_EQ(reread.replay([&](BytesView b) { got.push_back(to_string(b)); }), 3u);
  EXPECT_EQ(got.back(), "after-recovery");
}

TEST(LogStore, CorruptMiddleRecordStopsReplay) {
  TempFile tmp("corrupt");
  {
    LogStore log(tmp.path);
    log.append(to_bytes("good"));
    log.append(to_bytes("soon-corrupt"));
  }
  {
    std::FILE* f = std::fopen(tmp.path.c_str(), "r+b");
    std::fseek(f, -3, SEEK_END);  // flip a byte inside the last payload
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  LogStore log(tmp.path);
  std::vector<std::string> got;
  EXPECT_EQ(log.replay([&](BytesView b) { got.push_back(to_string(b)); }), 1u);
  EXPECT_EQ(got[0], "good");
}

TEST(LogStore, TornTailFuzzAtEveryByteOffset) {
  // Satellite robustness sweep: truncate the file at EVERY byte offset
  // inside the final record (header and payload). Recovery must keep the
  // intact two-record prefix, never crash, and classify the damage:
  // a short read is a torn tail (no checksum failure), while a truncation
  // that leaves the full framing but cuts... cannot exist — truncation
  // inside the payload IS a short read. Only bit-flips (below) count as
  // checksum failures.
  TempFile proto("fuzz_proto");
  {
    LogStore log(proto.path);
    log.append(to_bytes("first"));
    log.append(to_bytes("second"));
    log.append(to_bytes("the-final-record-that-gets-torn"));
  }
  const Bytes full = read_file(proto.path);
  const std::size_t tail_record = 8 + 31;  // header + payload of record 3
  const std::size_t intact_end = full.size() - tail_record;

  for (std::size_t cut = intact_end; cut < full.size(); ++cut) {
    TempFile tmp("fuzz_cut");
    write_file(tmp.path, BytesView(full.data(), cut));
    LogStore log(tmp.path);
    std::vector<std::string> got;
    EXPECT_EQ(log.replay([&](BytesView b) { got.push_back(to_string(b)); }), 2u)
        << "cut at byte " << cut;
    ASSERT_EQ(got.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(got[0], "first");
    EXPECT_EQ(got[1], "second");
    EXPECT_EQ(log.checksum_failures(), 0u)
        << "a short read is a torn tail, not corruption (cut " << cut << ")";
    // The log is writable again, and the re-opened file replays cleanly.
    EXPECT_TRUE(log.append(to_bytes("appended")));
    LogStore reread(tmp.path);
    std::size_t n = 0;
    EXPECT_EQ(reread.replay([&](BytesView) { ++n; }), 3u) << "cut at byte " << cut;
  }
}

TEST(LogStore, BitFlipFuzzAtEveryByteOffset) {
  // Flip one bit in every byte of the final record in turn. Whatever the
  // position — length field, CRC field, payload — recovery must keep the
  // intact prefix, never deliver damaged bytes, and surface the
  // corruption through the checksum-failure counter (except flips in the
  // length field that make the record read as torn instead — those may
  // legitimately classify either way, but must still protect the prefix).
  TempFile proto("flip_proto");
  {
    LogStore log(proto.path);
    log.append(to_bytes("first"));
    log.append(to_bytes("second"));
    log.append(to_bytes("the-final-record-that-gets-flipped"));
  }
  const Bytes full = read_file(proto.path);
  const std::size_t tail_record = 8 + 34;
  const std::size_t tail_start = full.size() - tail_record;

  for (std::size_t at = tail_start; at < full.size(); ++at) {
    for (const std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      TempFile tmp("flip");
      Bytes mod = full;
      mod[at] ^= bit;
      write_file(tmp.path, mod);
      LogStore log(tmp.path);
      std::vector<std::string> got;
      EXPECT_EQ(log.replay([&](BytesView b) { got.push_back(to_string(b)); }), 2u)
          << "flip at byte " << at;
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], "first");
      EXPECT_EQ(got[1], "second");
      // Every flip damages exactly one record; a flip that enlarges the
      // length field can also present as a torn tail. Either way the
      // prefix survives; most positions must trip the CRC.
      const bool length_field = at - tail_start < 4;
      if (!length_field) {
        EXPECT_EQ(log.checksum_failures(), 1u) << "flip at byte " << at;
      }
    }
  }
}

TEST(LogStore, SkipRecordsReplaysOnlyTheSuffix) {
  TempFile tmp("skip");
  {
    LogStore log(tmp.path);
    for (int i = 0; i < 5; ++i) log.append(to_bytes("r" + std::to_string(i)));
  }
  LogStore log(tmp.path);
  std::vector<std::string> got;
  EXPECT_EQ(log.replay([&](BytesView b) { got.push_back(to_string(b)); }, 3), 2u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "r3");
  EXPECT_EQ(got[1], "r4");
  EXPECT_EQ(log.records(), 5u) << "skipped records still count as intact";
}

TEST(SnapshotStore, RoundtripAndCounters) {
  TempFile tmp("snap");
  SnapshotStore store(tmp.path);
  EXPECT_FALSE(store.load().has_value()) << "missing file is not a snapshot";
  EXPECT_EQ(store.rejects(), 0u) << "missing is not a reject";

  const Bytes payload = to_bytes("snapshot-payload-bytes");
  ASSERT_TRUE(store.save(42, payload));
  EXPECT_EQ(store.saves(), 1u);
  const auto img = store.load();
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(img->log_records, 42u);
  EXPECT_EQ(img->payload, payload);

  // Overwrite is atomic-by-rename: the second save fully replaces.
  ASSERT_TRUE(store.save(43, to_bytes("second")));
  const auto img2 = store.load();
  ASSERT_TRUE(img2.has_value());
  EXPECT_EQ(img2->log_records, 43u);
  EXPECT_EQ(to_string(img2->payload), "second");
}

TEST(SnapshotStore, TamperAndTornRejectionAtEveryOffset) {
  // The snapshot's integrity root is the verifiers' chunk-tree digest: a
  // flip ANYWHERE in the file (header, root, payload) or a truncation at
  // any offset must be rejected — recovery then falls back to log replay.
  TempFile proto("snap_fuzz");
  Bytes file;
  {
    SnapshotStore store(proto.path);
    ASSERT_TRUE(store.save(7, to_bytes("integrity-rooted-payload")));
    file = read_file(proto.path);
  }
  for (std::size_t at = 0; at < file.size(); ++at) {
    TempFile tmp("snap_flip");
    Bytes mod = file;
    mod[at] ^= 0x01;
    write_file(tmp.path, mod);
    SnapshotStore store(tmp.path);
    // Flips in the log_records field keep payload integrity intact — the
    // field is consumed as-is (recovery re-anchors coverage; the WAL rule
    // guarantees the payload never claims unlogged state). Everything
    // else must reject.
    const bool log_records_field = at >= 8 && at < 16;
    if (!log_records_field) {
      EXPECT_FALSE(store.load().has_value()) << "flip at byte " << at;
      EXPECT_EQ(store.rejects(), 1u) << "flip at byte " << at;
    }
  }
  for (std::size_t cut = 0; cut < file.size(); ++cut) {
    TempFile tmp("snap_cut");
    write_file(tmp.path, BytesView(file.data(), cut));
    SnapshotStore store(tmp.path);
    EXPECT_FALSE(store.load().has_value()) << "cut at byte " << cut;
    EXPECT_EQ(store.rejects(), 1u) << "cut at byte " << cut;
  }
}

TEST(PersistentServerTest, CrashRecoveryIsInvisibleToClients) {
  constexpr int kN = 3;
  TempFile tmp("server");

  sim::Scheduler sched;
  net::Network net(sched, Rng(5), net::DelayModel{2, 5});
  auto sigs = crypto::make_hmac_scheme(kN);
  std::vector<std::unique_ptr<ustor::Client>> clients;

  auto server = std::make_unique<PersistentServer>(kN, net, tmp.path);
  EXPECT_EQ(server->recovered_records(), 0u);
  for (ClientId i = 1; i <= kN; ++i) {
    clients.push_back(std::make_unique<ustor::Client>(i, kN, sigs, net));
  }

  const auto write_sync = [&](ClientId i, std::string_view v) {
    bool done = false;
    clients[static_cast<std::size_t>(i - 1)]->writex(
        to_bytes(v), [&done](const ustor::WriteResult&) { done = true; });
    while (!done && sched.step()) {
    }
    return done;
  };
  const auto read_sync = [&](ClientId i, ClientId j) {
    bool done = false;
    ustor::Value out;
    clients[static_cast<std::size_t>(i - 1)]->readx(j, [&](const ustor::ReadResult& r) {
      out = ustor::to_owned(r.value);
      done = true;
    });
    while (!done && sched.step()) {
    }
    EXPECT_TRUE(done);
    return out;
  };

  ASSERT_TRUE(write_sync(1, "pre-crash-1"));
  ASSERT_TRUE(write_sync(2, "pre-crash-2"));
  ASSERT_TRUE(read_sync(3, 1).has_value());
  sched.run();  // drain trailing COMMITs into the log

  const auto schedule_before = server->core().schedule();

  // Crash: destroy the server object entirely; then restart from the log.
  net.detach(kServerNode);
  server.reset();
  server = std::make_unique<PersistentServer>(kN, net, tmp.path);
  EXPECT_GT(server->recovered_records(), 0u);
  EXPECT_EQ(server->core().schedule(), schedule_before)
      << "recovered schedule must be byte-identical";

  // Clients keep operating against the recovered server: versions extend,
  // values read back, and no fail_i ever fires.
  ASSERT_TRUE(write_sync(1, "post-crash"));
  const ustor::Value v = read_sync(2, 1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(*v), "post-crash");
  const ustor::Value v2 = read_sync(3, 2);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(to_string(*v2), "pre-crash-2");
  for (const auto& c : clients) EXPECT_FALSE(c->failed());
}

TEST(PersistentServerTest, DoubleCrashStillConsistent) {
  constexpr int kN = 2;
  TempFile tmp("server2");
  sim::Scheduler sched;
  net::Network net(sched, Rng(9), net::DelayModel{1, 3});
  auto sigs = crypto::make_hmac_scheme(kN);
  ustor::Client c1(1, kN, sigs, net);
  ustor::Client c2(2, kN, sigs, net);

  for (int round = 0; round < 3; ++round) {
    PersistentServer server(kN, net, tmp.path);
    bool done = false;
    c1.writex(to_bytes("round-" + std::to_string(round)),
              [&done](const ustor::WriteResult&) { done = true; });
    while (!done && sched.step()) {
    }
    ASSERT_TRUE(done) << "round " << round;
    sched.run();
    net.detach(kServerNode);  // crash between rounds
  }
  PersistentServer server(kN, net, tmp.path);
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
  EXPECT_EQ(to_string(*v), "round-2");
  EXPECT_FALSE(c1.failed());
  EXPECT_FALSE(c2.failed());
}

/// A COMMIT the server must ignore: well-formed, but its sender is not
/// one of the n clients.
Bytes stray_commit(int n) {
  ustor::Version v(n);
  v.V[0] = 100;  // would promote c and prune L if it were processed
  return ustor::encode(ustor::CommitMessage{v, Bytes(32, 1), Bytes(32, 2)});
}

TEST(PersistentServerTest, CommitFromOutsideTheClientRangeIsIgnoredAndRestartsCleanly) {
  // Regression: a COMMIT whose sender is outside 1..n (node 0, an id past
  // n, a cache node — SocketTransport passes on whatever `from` a frame
  // claims) used to reach ServerCore::process_commit's range check and
  // abort the server; a durable server had already appended it to the
  // WAL, so every restart replayed it and aborted again.
  constexpr int kN = 3;
  TempFile tmp("stray_commit");
  sim::Scheduler sched;
  net::Network net(sched, Rng(13), net::DelayModel{1, 2});
  auto sigs = crypto::make_hmac_scheme(kN);
  ustor::Client c1(1, kN, sigs, net);
  ustor::Client c2(2, kN, sigs, net);
  auto server = std::make_unique<PersistentServer>(kN, net, tmp.path);

  bool done = false;
  c1.writex(to_bytes("v1"), [&done](const ustor::WriteResult&) { done = true; });
  while (!done && sched.step()) {
  }
  ASSERT_TRUE(done);
  sched.run();

  const std::uint64_t records = server->wal_records();
  const Bytes state = ustor::encode_server_state(server->core());
  const Bytes commit = stray_commit(kN);
  for (const NodeId from : {NodeId{0}, NodeId{kN + 1}, NodeId{7}, cache::kCacheNodeId}) {
    server->on_message(from, commit);
    server->on_shared_message(from, std::make_shared<const Bytes>(commit));
  }
  EXPECT_EQ(server->wal_records(), records) << "nothing may reach the journal";
  EXPECT_EQ(ustor::encode_server_state(server->core()), state) << "nor the state";

  net.detach(kServerNode);
  server.reset();
  server = std::make_unique<PersistentServer>(kN, net, tmp.path);
  EXPECT_EQ(server->recovered_records(), records);
  EXPECT_EQ(ustor::encode_server_state(server->core()), state);

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
  EXPECT_EQ(to_string(*v), "v1");
  EXPECT_FALSE(c1.failed());
  EXPECT_FALSE(c2.failed());
}

TEST(PersistentServerTest, AlreadyJournaledStrayCommitReplaysCleanly) {
  // A WAL written before the range check existed may already hold such a
  // record; replay runs the same dispatch, so it is skipped there too.
  constexpr int kN = 2;
  TempFile tmp("stray_commit_log");
  {
    LogStore log(tmp.path);
    log.replay([](BytesView) {});
    wire::Writer w;
    w.put_u32(0);  // sender: node 0
    w.put_raw(stray_commit(kN));
    ASSERT_TRUE(log.append(w.buffer()));
  }
  sim::Scheduler sched;
  net::Network net(sched, Rng(14), net::DelayModel{1, 2});
  PersistentServer server(kN, net, tmp.path);
  EXPECT_EQ(server.recovered_records(), 1u);
  EXPECT_EQ(ustor::encode_server_state(server.core()),
            ustor::encode_server_state(ustor::ServerCore(kN)));
}

/// A state image in the earlier ("FST1") layout: encode_server_state
/// without the per-register delta bookkeeping.
Bytes encode_v1_state(const ustor::ServerCore& core) {
  const auto put_version = [](wire::Writer& w, const ustor::Version& v) {
    w.put_u32(static_cast<std::uint32_t>(v.V.size()));
    for (const Timestamp t : v.V) w.put_u64(t);
    for (const ustor::Digest& d : v.M) {
      w.put_u8(d.present ? 1 : 0);
      if (d.present) w.put_raw(BytesView(d.hash.data(), d.hash.size()));
    }
  };
  wire::Writer w;
  w.put_u32(0x46535431);
  w.put_u32(static_cast<std::uint32_t>(core.n()));
  for (ClientId i = 1; i <= core.n(); ++i) {
    const ustor::ServerCore::MemEntry& me = core.mem(i);
    w.put_u64(me.t);
    w.put_u8(me.value.has_value() ? 1 : 0);
    if (me.value.has_value()) w.put_bytes(me.value->view());
    w.put_bytes(me.data_sig.view());
  }
  w.put_u32(static_cast<std::uint32_t>(core.last_committer()));
  for (ClientId i = 1; i <= core.n(); ++i) {
    put_version(w, core.sver(i).version);
    w.put_bytes(core.sver(i).commit_sig);
  }
  w.put_u32(static_cast<std::uint32_t>(core.L().size()));
  for (const ustor::InvocationTuple& inv : core.L()) {
    w.put_u32(static_cast<std::uint32_t>(inv.client));
    w.put_u8(static_cast<std::uint8_t>(inv.oc));
    w.put_u32(static_cast<std::uint32_t>(inv.target));
    w.put_bytes(inv.submit_sig);
  }
  for (const Bytes& p : core.P()) w.put_bytes(p);
  w.put_u32(static_cast<std::uint32_t>(core.schedule().size()));
  for (const ustor::ScheduledOp& op : core.schedule()) {
    w.put_u32(static_cast<std::uint32_t>(op.client));
    w.put_u8(static_cast<std::uint8_t>(op.oc));
    w.put_u32(static_cast<std::uint32_t>(op.target));
    w.put_u64(op.t);
  }
  return w.take();
}

TEST(PersistentServerTest, VersionOneSnapshotStillRestores) {
  // A snapshot written in the earlier image format, without the delta
  // bookkeeping, must still restore: here the log that would let recovery
  // rebuild the state without it is gone.
  constexpr int kN = 2;
  TempDirFixture dir("v1_snapshot");
  sim::Scheduler sched;
  net::Network net(sched, Rng(15), net::DelayModel{1, 2});
  auto sigs = crypto::make_hmac_scheme(kN);
  ustor::Client c1(1, kN, sigs, net, kServerNode, 4096, ustor::DigestMode::kChunked,
                   /*wire_deltas=*/true);
  ustor::Client c2(2, kN, sigs, net, kServerNode, 4096, ustor::DigestMode::kChunked,
                   /*wire_deltas=*/true);
  auto server = std::make_unique<PersistentServer>(kN, net, dir.path, DurabilityOptions{});

  const auto settle = [&](const bool& done) {
    while (!done && sched.step()) {
    }
    EXPECT_TRUE(done);
    sched.run();
  };
  Bytes value(3000, 7);
  const auto delta_write = [&](std::size_t off, std::uint8_t b) {
    const crypto::Hash base = crypto::ChunkedHasher::digest(value);
    value[off] = b;
    std::vector<ustor::Splice> splices{ustor::Splice{off, 1, Bytes(1, b)}};
    bool done = false;
    c1.writex_delta(base, crypto::ChunkedHasher::digest(value), value.size(),
                    std::move(splices), [&](const ustor::WriteResult&) { done = true; });
    settle(done);
  };
  const auto read = [&] {
    bool done = false;
    ustor::Value got;
    c2.readx(1, [&](const ustor::ReadResult& r) {
      got = ustor::to_owned(r.value);
      done = true;
    });
    settle(done);
    return got;
  };
  bool done = false;
  c1.writex(value, [&](const ustor::WriteResult&) { done = true; });
  settle(done);
  ASSERT_TRUE(read().has_value());
  delta_write(10, 1);
  delta_write(2000, 2);
  ASSERT_TRUE(read().has_value());
  ASSERT_FALSE(server->core().mem(1).history.empty());

  // Rewrite the snapshot in the version-1 layout, keeping its reply cache.
  ASSERT_TRUE(server->force_snapshot());
  const Bytes v1_image = encode_v1_state(server->core());
  {
    SnapshotStore store(dir.path + "/snapshot.bin");
    auto img = store.load();
    ASSERT_TRUE(img.has_value());
    wire::Reader r(img->payload);
    ASSERT_FALSE(wire::Reader::is_error(r.get_bytes_view()));
    wire::Writer w;
    w.put_bytes(v1_image);
    w.put_raw(r.get_raw(r.remaining()));
    ASSERT_TRUE(store.save(img->log_records, w.buffer()));
  }
  net.detach(kServerNode);
  server.reset();
  std::filesystem::remove(dir.path + "/wal.log");  // the log is lost

  server = std::make_unique<PersistentServer>(kN, net, dir.path, DurabilityOptions{});
  EXPECT_TRUE(server->recovered_from_snapshot());
  EXPECT_EQ(server->recovered_records(), 0u);
  EXPECT_EQ(encode_v1_state(server->core()), v1_image);
  EXPECT_FALSE(server->core().mem(1).digest_known);
  EXPECT_TRUE(server->core().mem(1).history.empty());

  // Clients go on: a read whose base is current, a delta write on top of
  // the restored value, and a read of it; no fail_i.
  const std::uint64_t unchanged = c2.delta_replies_unchanged();
  const ustor::Value same = read();
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(*same, value);
  EXPECT_EQ(c2.delta_replies_unchanged(), unchanged + 1);
  delta_write(500, 3);
  const ustor::Value edited = read();
  ASSERT_TRUE(edited.has_value());
  EXPECT_EQ(*edited, value);
  EXPECT_FALSE(c1.failed());
  EXPECT_FALSE(c2.failed());
}

TEST(PersistentServerTest, SnapshotFromTheDepthEightWindowStillRestores) {
  // The delta history used to keep 8 records per register. A snapshot
  // written then holds at most 8; it must restore as is, serve the bases
  // it covers as splices and the older ones in full, and grow past 8
  // records on later writes.
  constexpr int kN = 3;
  constexpr std::size_t kOldDepth = 8;
  TempDirFixture dir("depth8_snapshot");
  sim::Scheduler sched;
  net::Network net(sched, Rng(16), net::DelayModel{1, 2});
  auto sigs = crypto::make_hmac_scheme(kN);
  std::vector<std::unique_ptr<ustor::Client>> c;
  for (ClientId i = 1; i <= kN; ++i) {
    c.push_back(std::make_unique<ustor::Client>(i, kN, sigs, net, kServerNode, 4096,
                                                ustor::DigestMode::kChunked,
                                                /*wire_deltas=*/true));
  }
  auto server = std::make_unique<PersistentServer>(kN, net, dir.path, DurabilityOptions{});
  const auto settle = [&](const bool& done) {
    while (!done && sched.step()) {
    }
    EXPECT_TRUE(done);
    sched.run();
  };
  Bytes value(3000, 7);
  const auto delta_write = [&](std::size_t off, std::uint8_t b) {
    const crypto::Hash base = crypto::ChunkedHasher::digest(value);
    value[off] = b;
    std::vector<ustor::Splice> splices{ustor::Splice{off, 1, Bytes(1, b)}};
    bool done = false;
    c[0]->writex_delta(base, crypto::ChunkedHasher::digest(value), value.size(),
                       std::move(splices), [&](const ustor::WriteResult&) { done = true; });
    settle(done);
  };
  const auto read = [&](ClientId reader) {
    bool done = false;
    ustor::Value got;
    c[static_cast<std::size_t>(reader - 1)]->readx(1, [&](const ustor::ReadResult& r) {
      got = ustor::to_owned(r.value);
      done = true;
    });
    settle(done);
    return got;
  };
  bool done = false;
  c[0]->writex(value, [&](const ustor::WriteResult&) { done = true; });
  settle(done);
  ASSERT_TRUE(read(2).has_value());  // client 2's base: 12 records old below
  for (int w = 0; w < 4; ++w) delta_write(100 + static_cast<std::size_t>(w), 1);
  ASSERT_TRUE(read(3).has_value());  // client 3's base: 8 records old below
  for (int w = 0; w < 8; ++w) delta_write(900 + static_cast<std::size_t>(w), 2);
  ASSERT_EQ(server->core().mem(1).history.size(), 12u);

  // The image a depth-8 server held at this point: the same state with
  // only the newest 8 records.
  ASSERT_TRUE(server->force_snapshot());
  ustor::ServerCore old_core(server->core());
  auto& history = old_core.mem(1).history;
  history.erase(history.begin(), history.end() - static_cast<std::ptrdiff_t>(kOldDepth));
  const Bytes old_image = ustor::encode_server_state(old_core);
  {
    SnapshotStore store(dir.path + "/snapshot.bin");
    auto img = store.load();
    ASSERT_TRUE(img.has_value());
    wire::Reader r(img->payload);
    ASSERT_FALSE(wire::Reader::is_error(r.get_bytes_view()));
    wire::Writer w;
    w.put_bytes(old_image);
    w.put_raw(r.get_raw(r.remaining()));
    ASSERT_TRUE(store.save(img->log_records, w.buffer()));
  }
  net.detach(kServerNode);
  server.reset();
  std::filesystem::remove(dir.path + "/wal.log");  // only the snapshot is left

  server = std::make_unique<PersistentServer>(kN, net, dir.path, DurabilityOptions{});
  EXPECT_TRUE(server->recovered_from_snapshot());
  EXPECT_EQ(ustor::encode_server_state(server->core()), old_image);
  EXPECT_EQ(server->core().mem(1).history.size(), kOldDepth);

  // A base the 8 records cover comes back as splices; an older one in full.
  const std::uint64_t spliced3 = c[2]->delta_replies_spliced();
  EXPECT_EQ(read(3), ustor::Value(value));
  EXPECT_EQ(c[2]->delta_replies_spliced(), spliced3 + 1);
  const std::uint64_t spliced2 = c[1]->delta_replies_spliced();
  EXPECT_EQ(read(2), ustor::Value(value));
  EXPECT_EQ(c[1]->delta_replies_spliced(), spliced2);
  // New writes extend the restored chain past the old depth.
  for (int w = 0; w < 4; ++w) delta_write(2000 + static_cast<std::size_t>(w), 3);
  EXPECT_EQ(server->core().mem(1).history.size(), kOldDepth + 4);
  EXPECT_EQ(read(3), ustor::Value(value));
  EXPECT_EQ(c[2]->delta_replies_spliced(), spliced3 + 2);
  for (const auto& client : c) EXPECT_FALSE(client->failed());
}

// --- One dispatch path: durable and in-memory servers answer the same -----

/// Records a live run's server-bound traffic, in delivery order.
struct ScriptTap : net::Node {
  net::Node* target = nullptr;
  std::vector<std::pair<NodeId, Bytes>> script;
  void on_message(NodeId from, BytesView msg) override {
    script.emplace_back(from, Bytes(msg.begin(), msg.end()));
    target->on_message(from, msg);
  }
  void on_shared_message(NodeId from, const std::shared_ptr<const Bytes>& msg) override {
    script.emplace_back(from, *msg);
    target->on_shared_message(from, msg);
  }
};

/// A transport that only records what is sent through it.
struct SendLog : net::Transport {
  std::vector<std::pair<NodeId, Bytes>> sent;
  void attach(NodeId, net::Node&) override {}
  void detach(NodeId) override {}
  void send(NodeId, NodeId to, Bytes msg) override { sent.emplace_back(to, std::move(msg)); }
};

/// A seeded message script over three chunked-digest, delta-speaking
/// clients: writer 1 edits its value by SUBMIT_DELTA while clients 2 and 3
/// read it with advertised bases that are current, inside the delta
/// history, or older than it; client 2 piggybacks its COMMITs. The script
/// is then doctored: client 3's SUBMITs move ahead of the COMMIT they
/// follow (the server must park them), half of client 2's standalone
/// COMMITs are lost (their piggybacked copies must do the work), and a
/// few SUBMITs are delivered twice.
std::vector<std::pair<NodeId, Bytes>> delta_script(std::uint64_t seed) {
  constexpr int kN = 3;
  sim::Scheduler sched;
  net::Network net(sched, Rng(seed), net::DelayModel{1, 2});
  auto sigs = crypto::make_hmac_scheme(kN);
  std::vector<std::unique_ptr<ustor::Client>> clients;
  for (ClientId i = 1; i <= kN; ++i) {
    clients.push_back(std::make_unique<ustor::Client>(
        i, kN, sigs, net, kServerNode, 4096, ustor::DigestMode::kChunked, /*wire_deltas=*/true));
  }
  clients[1]->set_attach_commits(true);
  ustor::Server live(kN, net);
  ScriptTap tap;
  tap.target = &live;
  net.attach(kServerNode, tap);

  const auto settle = [&](const bool& done) {
    while (!done && sched.step()) {
    }
    EXPECT_TRUE(done);
    sched.run();
  };
  const auto read = [&](ClientId i, ClientId j) {
    bool done = false;
    clients[static_cast<std::size_t>(i - 1)]->readx(j, [&](const ustor::ReadResult&) {
      done = true;
    });
    settle(done);
  };
  Rng rng(seed);
  Bytes value(3000);
  for (auto& b : value) b = static_cast<std::uint8_t>(rng.next_u64());
  bool done = false;
  clients[0]->writex(value, [&](const ustor::WriteResult&) { done = true; });
  settle(done);
  const auto delta_write = [&] {
    const crypto::Hash base = crypto::ChunkedHasher::digest(value);
    const std::size_t off = rng.next_u64() % (value.size() - 16);
    Bytes insert(16);
    for (auto& b : insert) b = static_cast<std::uint8_t>(rng.next_u64());
    std::copy(insert.begin(), insert.end(), value.begin() + static_cast<std::ptrdiff_t>(off));
    std::vector<ustor::Splice> splices{ustor::Splice{off, insert.size(), std::move(insert)}};
    bool wrote = false;
    clients[0]->writex_delta(base, crypto::ChunkedHasher::digest(value), value.size(),
                             std::move(splices), [&](const ustor::WriteResult&) { wrote = true; });
    settle(wrote);
  };

  read(2, 1);
  read(3, 1);
  for (int round = 0; round < 6; ++round) {
    // 1..3 edits (inside the history) or more than it holds, then reads.
    constexpr int kPast = static_cast<int>(ustor::ServerCore::kDeltaHistoryDepth) + 2;
    const int edits = round == 2 || round == 4 ? kPast : 1 + static_cast<int>(rng.next_u64() % 3);
    for (int e = 0; e < edits; ++e) delta_write();
    read(2, 1);
    read(3, 1);
    read(3, 1);  // base current: "unchanged"
    read(2, 3);  // a ⊥ register
  }
  std::uint64_t advertised = 0, unchanged = 0, spliced = 0;
  for (const auto& c : clients) {
    advertised += c->delta_reads_advertised();
    unchanged += c->delta_replies_unchanged();
    spliced += c->delta_replies_spliced();
    EXPECT_FALSE(c->failed());
    EXPECT_EQ(c->delta_fallbacks(), 0u);
  }
  EXPECT_GT(unchanged, 0u);
  EXPECT_GT(spliced, 0u);
  EXPECT_GT(advertised, unchanged + spliced) << "some bases must be older than the history";

  std::vector<std::pair<NodeId, Bytes>> script = std::move(tap.script);
  const auto type_of = [&](std::size_t k) { return ustor::peek_type(script[k].second); };
  // Client 3 never piggybacks: move each of its SUBMITs ahead of the
  // COMMIT (of its previous op) it directly follows among its own messages.
  for (std::size_t k = 1; k < script.size(); ++k) {
    if (script[k].first != 3 || type_of(k) == ustor::MsgType::kCommit) continue;
    std::size_t prev = k;
    while (prev-- > 0 && script[prev].first != 3) {
    }
    if (prev < k && type_of(prev) == ustor::MsgType::kCommit) {
      std::rotate(script.begin() + static_cast<std::ptrdiff_t>(prev),
                  script.begin() + static_cast<std::ptrdiff_t>(k),
                  script.begin() + static_cast<std::ptrdiff_t>(k + 1));
    }
  }
  // Drop every other standalone COMMIT of client 2: its next SUBMIT's
  // piggyback then carries that COMMIT and advances SVER[2] itself.
  bool drop = false;
  std::erase_if(script, [&](const std::pair<NodeId, Bytes>& m) {
    if (m.first != 2 || ustor::peek_type(m.second) != ustor::MsgType::kCommit) return false;
    drop = !drop;
    return drop;
  });
  // Duplicates: re-deliver a few SUBMITs somewhere after their original.
  for (int d = 0; d < 6; ++d) {
    std::size_t k = rng.next_u64() % script.size();
    while (type_of(k) == ustor::MsgType::kCommit) k = (k + 1) % script.size();
    const std::size_t at = k + 1 + rng.next_u64() % (script.size() - k);
    auto copy = script[k];
    script.insert(script.begin() + static_cast<std::ptrdiff_t>(at), std::move(copy));
  }
  return script;
}

TEST(DurableDispatch, DurableAndInMemoryServersAnswerTheSame) {
  constexpr int kN = 3;
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    SCOPED_TRACE(seed);
    const auto script = delta_script(seed);
    TempDirFixture dir("same_answers_" + std::to_string(seed));
    SendLog mem_out;
    SendLog durable_out;
    ustor::Server mem(kN, mem_out);
    auto owned = std::make_unique<PersistentServer>(kN, durable_out, dir.path,
                                                    DurabilityOptions{5});
    PersistentServer& durable = *owned;
    for (std::size_t k = 0; k < script.size(); ++k) {
      const auto& [from, bytes] = script[k];
      if (k % 2 == 0) {
        const auto shared = std::make_shared<const Bytes>(bytes);
        mem.on_shared_message(from, shared);
        durable.on_shared_message(from, shared);
      } else {
        mem.on_message(from, bytes);
        durable.on_message(from, bytes);
      }
    }
    EXPECT_GT(mem.parked_submits(), 0u);
    EXPECT_GT(mem.duplicate_replies(), 0u);
    EXPECT_GT(durable.snapshots_written(), 0u);
    // Every standalone COMMIT and every non-duplicate SUBMIT is journaled
    // once; anything beyond that is a piggybacked COMMIT that advanced SVER.
    std::uint64_t commits = 0;
    for (const auto& m : script) commits += ustor::peek_type(m.second) == ustor::MsgType::kCommit;
    const std::uint64_t submits = script.size() - commits;
    EXPECT_GT(durable.wal_records(), commits + submits - durable.duplicate_replies());
    EXPECT_EQ(durable.parked_submits(), mem.parked_submits());
    EXPECT_EQ(durable.duplicate_replies(), mem.duplicate_replies());
    ASSERT_EQ(durable_out.sent.size(), mem_out.sent.size());
    for (std::size_t k = 0; k < mem_out.sent.size(); ++k) {
      ASSERT_EQ(durable_out.sent[k], mem_out.sent[k]) << "reply " << k;
    }
    const Bytes state = ustor::encode_server_state(mem.core());
    EXPECT_EQ(ustor::encode_server_state(durable.core()), state);

    // And a restart from that directory lands in the same state.
    owned.reset();
    PersistentServer recovered(kN, durable_out, dir.path, DurabilityOptions{5});
    EXPECT_TRUE(recovered.recovered_from_snapshot());
    EXPECT_EQ(ustor::encode_server_state(recovered.core()), state);
  }
}

}  // namespace
}  // namespace faust::storage
