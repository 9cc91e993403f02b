// O(change) KV machinery: incremental partition encoding, version-keyed
// decode memos and the merged-view cache must be pure performance — byte-
// identical publications, identical merged views and stability cuts vs
// the legacy full-reencode/full-decode paths — and must never weaken the
// Byzantine story: a tampered or replayed partition is rejected by the
// FAUST/USTOR checks BEFORE any memo is consulted (the memos are keyed
// only by verified digests).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/tamper_server.h"
#include "api/store.h"
#include "common/rng.h"
#include "faust/cluster.h"
#include "kvstore/kv_client.h"

namespace faust::kv {
namespace {

struct Rig {
  Rig(std::uint64_t seed, KvTuning tuning, ustor::DigestMode digest, int n = 3,
      bool with_server = true) {
    ClusterConfig cfg;
    cfg.n = n;
    cfg.seed = seed;
    cfg.faust.dummy_read_period = 0;
    cfg.faust.probe_check_period = 0;
    cfg.faust.data_digest = digest;
    cfg.with_server = with_server;
    cluster = std::make_unique<Cluster>(cfg);
    for (ClientId i = 1; i <= n; ++i) {
      kv.push_back(std::make_unique<KvClient>(cluster->client(i), tuning));
    }
  }

  KvClient& client(ClientId i) { return *kv[static_cast<std::size_t>(i - 1)]; }

  /// REPLY_DELTA answers (spliced or unchanged) client i's engine accepted.
  std::uint64_t engine_delta_replies(ClientId i) {
    const ustor::Client& e = cluster->client(i).engine();
    return e.delta_replies_spliced() + e.delta_replies_unchanged();
  }

  void drive(const bool& done) {
    std::size_t steps = 0;
    while (!done && steps < 2'000'000 && cluster->sched().step()) ++steps;
  }

  void put(ClientId i, const std::string& k, const std::string& v) {
    bool done = false;
    client(i).put(k, v, [&](Timestamp) { done = true; });
    drive(done);
    ASSERT_TRUE(done);
  }

  void erase(ClientId i, const std::string& k) {
    bool done = false;
    client(i).erase(k, [&](Timestamp) { done = true; });
    drive(done);
    ASSERT_TRUE(done);
  }

  /// Returns false iff the op hung (e.g. the client failed mid-read).
  bool try_get(ClientId i, const std::string& k, std::optional<KvEntry>* out) {
    bool done = false;
    client(i).get(k, [&](std::optional<KvEntry> e, Timestamp) {
      *out = std::move(e);
      done = true;
    });
    drive(done);
    return done;
  }

  std::map<std::string, KvEntry> list(ClientId i) {
    bool done = false;
    std::map<std::string, KvEntry> out;
    client(i).list([&](const std::map<std::string, KvEntry>& m, Timestamp) {
      out = m;
      done = true;
    });
    drive(done);
    EXPECT_TRUE(done);
    return out;
  }

  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<KvClient>> kv;
};

constexpr KvTuning kDelta{true};
constexpr KvTuning kLegacy{false};

// --- Incremental encoding --------------------------------------------------

TEST(IncrementalEncoding, SplicedBufferAlwaysEqualsFullReencode) {
  // Seeded random workload of puts (fresh keys, same-size overwrites,
  // size-changing overwrites), erases (first/middle/last), and batches;
  // after every op the maintained buffer must equal a from-scratch
  // canonical encoding — splices are invisible.
  Rig rig(11, kDelta, ustor::DigestMode::kChunked);
  Rng rng(7);
  std::vector<std::string> keys;
  for (int op = 0; op < 120; ++op) {
    const std::size_t kind = rng.next_below(10);
    if (kind < 6 || keys.empty()) {  // put (maybe fresh)
      std::string key;
      if (keys.empty() || rng.next_below(2) == 0) {
        key = "key-" + std::to_string(rng.next_below(40));
        keys.push_back(key);
      } else {
        key = keys[rng.next_below(keys.size())];
      }
      rig.put(1, key, std::string(1 + rng.next_below(40), 'x'));
    } else if (kind < 8) {  // erase (often present, sometimes absent)
      rig.erase(1, keys[rng.next_below(keys.size())]);
    } else {  // coalesced batch, one publication
      std::vector<KvClient::SeqChange> batch;
      std::uint64_t seq = rig.client(1).put_seq();
      for (int b = 0; b < 3; ++b) {
        batch.push_back(KvClient::SeqChange{"batch-" + std::to_string(rng.next_below(10)),
                                            std::string(1 + rng.next_below(20), 'y'), ++seq});
      }
      bool done = false;
      rig.client(1).apply_with_seqs(batch, [&](Timestamp) { done = true; });
      rig.drive(done);
      ASSERT_TRUE(done);
    }
    const Bytes fresh = encode_partition(rig.client(1).own_partition());
    const BytesView kept = rig.client(1).encoded_partition();
    ASSERT_EQ(Bytes(kept.begin(), kept.end()), fresh) << "after op " << op;
  }
  // The workload above must have exercised the splice path, not rebuilt.
  EXPECT_GT(rig.client(1).encode_splices(), 100u);
  EXPECT_LE(rig.client(1).encode_rebuilds(), 1u);
}

TEST(IncrementalEncoding, PublishedBytesIdenticalToLegacyEngine) {
  // Same ops through a delta and a legacy engine: readers of either must
  // decode identical partitions (the knob changes cost, never bytes).
  Rig delta(21, kDelta, ustor::DigestMode::kChunked);
  Rig legacy(21, kLegacy, ustor::DigestMode::kFlat);
  Rng rng(3);
  for (int op = 0; op < 40; ++op) {
    const std::string key = "k" + std::to_string(rng.next_below(12));
    if (rng.next_below(4) == 0) {
      delta.erase(2, key);
      legacy.erase(2, key);
    } else {
      const std::string value = "v" + std::to_string(op);
      delta.put(2, key, value);
      legacy.put(2, key, value);
    }
    const BytesView a = delta.client(2).encoded_partition();
    const BytesView b = legacy.client(2).encoded_partition();
    ASSERT_EQ(Bytes(a.begin(), a.end()), Bytes(b.begin(), b.end())) << "after op " << op;
  }
  EXPECT_GT(delta.client(2).encode_splices(), 0u);
  EXPECT_EQ(legacy.client(2).encode_splices(), 0u) << "legacy must take the rebuild path";
}

// --- Decode memos and the merged-view cache --------------------------------

TEST(DecodeMemo, UnchangedSnapshotsSkipDecodeAndMerge) {
  Rig rig(31, kDelta, ustor::DigestMode::kChunked);
  rig.put(1, "a", "1");
  rig.put(2, "b", "2");
  rig.put(3, "c", "3");

  std::optional<KvEntry> e;
  ASSERT_TRUE(rig.try_get(1, "a", &e));  // cold: fills the memos
  const std::uint64_t hits_after_warm = rig.client(1).decode_memo_hits();
  const std::uint64_t merged_after_warm = rig.client(1).merged_cache_hits();

  for (int round = 1; round <= 5; ++round) {
    std::optional<KvEntry> got;
    ASSERT_TRUE(rig.try_get(1, "b", &got));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->value, "2");
    // Every register read hit the decode memo and the merge was skipped.
    EXPECT_EQ(rig.client(1).decode_memo_hits(), hits_after_warm + 3u * static_cast<unsigned>(round));
    EXPECT_EQ(rig.client(1).merged_cache_hits(), merged_after_warm + static_cast<unsigned>(round));
  }
}

TEST(DecodeMemo, WriteInvalidatesExactlyTheChangedPartition) {
  Rig rig(32, kDelta, ustor::DigestMode::kChunked);
  rig.put(1, "a", "1");
  rig.put(2, "b", "2");
  rig.put(3, "c", "3");
  std::optional<KvEntry> e;
  ASSERT_TRUE(rig.try_get(1, "a", &e));  // warm

  rig.put(3, "c", "3-new");  // one partition changes

  const std::uint64_t misses_before = rig.client(1).decode_memo_misses();
  std::optional<KvEntry> got;
  ASSERT_TRUE(rig.try_get(1, "c", &got));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, "3-new") << "memo must never serve stale content";
  EXPECT_EQ(rig.client(1).decode_memo_misses(), misses_before + 1u)
      << "only the rewritten partition re-decodes";

  // And the view agrees with a full-reencode, flat-digest engine
  // replaying the same state.
  Rig oracle(32, kLegacy, ustor::DigestMode::kFlat);
  oracle.put(1, "a", "1");
  oracle.put(2, "b", "2");
  oracle.put(3, "c", "3");
  oracle.put(3, "c", "3-new");
  EXPECT_EQ(rig.list(1), oracle.list(1));
}

TEST(DecodeMemo, KeptViewOutlivesTheMemoSlotMovingOn) {
  // A MergedView copied out of a snapshot pins the partition views it
  // observed, and through them the verified buffers they index: a slice
  // of the delivered REPLY for the first read, a delta reconstruction
  // after that. Later snapshots replace the memo slot (and the USTOR
  // client's verified value) again and again; the kept view must read the
  // same entries throughout. Under ASan a view that did not pin its bytes
  // reads freed memory here.
  Rig rig(33, kDelta, ustor::DigestMode::kChunked);
  rig.put(1, "k", "v0");
  rig.put(1, "pad", std::string(300, 'p'));
  const auto snapshot = [&rig] {
    bool done = false;
    std::optional<MergedView> out;
    rig.client(2).snapshot(/*bypass_cache=*/true,
                           [&](const MergedView& view, Timestamp, const ReadOrigin&) {
                             out = view;
                             done = true;
                           });
    rig.drive(done);
    EXPECT_TRUE(done);
    return out;
  };
  std::vector<MergedView> kept;
  std::vector<MergedView::Map> lists;
  for (int round = 0; round < 6; ++round) {
    std::optional<MergedView> view = snapshot();
    ASSERT_TRUE(view.has_value());
    lists.push_back(MergedView(*view).all());  // all() on a copy: `kept` builds its own
    kept.push_back(std::move(*view));
    rig.put(1, "k", "v" + std::to_string(round + 1));
    rig.put(1, "k" + std::to_string(round), std::string(40, 'x'));
  }
  EXPECT_GE(rig.client(2).decode_memo_misses(), 6u) << "every round re-decoded slot 1";
  EXPECT_GT(rig.engine_delta_replies(2), 0u) << "later rounds read through REPLY_DELTA";
  for (std::size_t r = 0; r < kept.size(); ++r) {
    const std::optional<KvEntry> k = kept[r].find("k");
    ASSERT_TRUE(k.has_value());
    EXPECT_EQ(k->value, "v" + std::to_string(r));
    EXPECT_EQ(kept[r].all(), lists[r]) << "round " << r;
  }
}

TEST(DecodeMemo, ViewsAndStabilityCutsIdenticalAcrossTunings) {
  // The acceptance pin: the delta paths and the forced-legacy paths must
  // produce identical winners AND identical stability cuts. Same cluster
  // seed + same ops = same message schedule (the knobs change neither
  // message count nor sizes), so even the cut vectors match exactly.
  Rig delta(77, kDelta, ustor::DigestMode::kChunked);
  Rig legacy(77, kLegacy, ustor::DigestMode::kFlat);
  Rng rng(5);
  for (int op = 0; op < 60; ++op) {
    const ClientId who = static_cast<ClientId>(1 + rng.next_below(3));
    const std::string key = "key-" + std::to_string(rng.next_below(10));
    const std::size_t kind = rng.next_below(10);
    if (kind < 6) {
      const std::string value = "v" + std::to_string(op);
      delta.put(who, key, value);
      legacy.put(who, key, value);
    } else if (kind < 8) {
      delta.erase(who, key);
      legacy.erase(who, key);
    } else {
      std::optional<KvEntry> a, b;
      ASSERT_TRUE(delta.try_get(who, key, &a));
      ASSERT_TRUE(legacy.try_get(who, key, &b));
      ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
      if (a.has_value()) {
        EXPECT_EQ(a->value, b->value);
        EXPECT_EQ(a->writer, b->writer);
        EXPECT_EQ(a->seq, b->seq);
      }
    }
  }
  for (ClientId i = 1; i <= 3; ++i) {
    EXPECT_EQ(delta.list(i), legacy.list(i)) << "reader " << i;
    EXPECT_EQ(delta.cluster->client(i).stability_cut(),
              legacy.cluster->client(i).stability_cut())
        << "client " << i;
    EXPECT_EQ(delta.cluster->client(i).fully_stable_timestamp(),
              legacy.cluster->client(i).fully_stable_timestamp());
  }
  EXPECT_GT(delta.client(1).decode_memo_hits() + delta.client(2).decode_memo_hits() +
                delta.client(3).decode_memo_hits(),
            0u)
      << "the comparison must actually exercise the memo path";
}

// --- Byzantine regressions -------------------------------------------------

TEST(DecodeMemoByzantine, TamperedPartitionUnderReusedVersionIsRejectedNotServed) {
  // The server substitutes a forged partition while keeping the genuine
  // DATA signature (adversary::Tamper::kValueFreshSig): the USTOR line-50
  // check fails BEFORE the KV layer sees anything — the decode memo is
  // keyed only by verified digests, so it is neither consulted nor
  // polluted, and no stale or forged view is ever delivered.
  Rig rig(41, kDelta, ustor::DigestMode::kChunked, /*n=*/3, /*with_server=*/false);
  // The victim (client 2) will fire on its 4th op: gets cost 3 reads, so
  // that is the first read of its SECOND get — after the memos are warm.
  adversary::TamperServer server(3, rig.cluster->net(), adversary::Tamper::kValueFreshSig,
                                 /*victim=*/2, /*fire_on_op=*/4);

  rig.put(1, "k", "genuine");
  std::optional<KvEntry> warm;
  ASSERT_TRUE(rig.try_get(2, "k", &warm));
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->value, "genuine");
  const std::uint64_t hits_before = rig.client(2).decode_memo_hits();

  std::optional<KvEntry> out;
  const bool completed = rig.try_get(2, "k", &out);
  EXPECT_TRUE(server.fired());
  EXPECT_FALSE(completed) << "a get over tampered bytes must not complete";
  EXPECT_TRUE(rig.cluster->client(2).failed()) << "fail_i must fire";
  EXPECT_EQ(rig.client(2).decode_memo_hits(), hits_before)
      << "the unverified read must not touch the memo";
}

TEST(DecodeMemoByzantine, StaleReplayUnderOldVersionIsRejectedNotServed) {
  // The replay attack (Tamper::kStaleTimestamp): old value with its
  // perfectly valid old DATA signature. The freshness checks (lines
  // 51–52) fire before the memo could replay the old decode — holding a
  // memoized copy of exactly that stale content must not weaken detection.
  Rig rig(42, kDelta, ustor::DigestMode::kChunked, /*n=*/3, /*with_server=*/false);
  adversary::TamperServer server(3, rig.cluster->net(), adversary::Tamper::kStaleTimestamp,
                                 /*victim=*/2, /*fire_on_op=*/7);

  rig.put(1, "k", "old-value");
  std::optional<KvEntry> seen;
  ASSERT_TRUE(rig.try_get(2, "k", &seen));  // memoizes the OLD partition
  EXPECT_EQ(seen->value, "old-value");
  rig.put(1, "k", "new-value");
  ASSERT_TRUE(rig.try_get(2, "k", &seen));  // sees and memoizes the new one
  EXPECT_EQ(seen->value, "new-value");

  std::optional<KvEntry> out;
  const bool completed = rig.try_get(2, "k", &out);  // replay fires here
  EXPECT_TRUE(server.fired());
  EXPECT_FALSE(completed) << "the replayed snapshot must not complete";
  EXPECT_TRUE(rig.cluster->client(2).failed());
}

// --- The unbatched Store::get path -----------------------------------------

TEST(StoreSingleGet, LoneGetMatchesBatchOfOneAndServesFromOneSnapshot) {
  // A lone Store::get IS a batch of one read point: same snapshot
  // machinery, same result — and through the engine's merged-view memo an
  // unchanged snapshot is served without decoding or copying.
  ClusterConfig cfg;
  cfg.n = 3;
  cfg.seed = 51;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cluster(cfg);
  auto writer = api::open_store(cluster, 1);
  auto reader = api::open_store(cluster, 2);
  ASSERT_GT(writer->put("key", "value").settle().ts, 0u);

  const api::GetResult lone = reader->get("key").settle();
  std::vector<api::Op> batch;
  batch.push_back(api::Op::get("key"));
  const api::BatchResult b = reader->apply(std::move(batch)).settle();
  ASSERT_TRUE(b.ok);
  ASSERT_TRUE(lone.entry.has_value());
  ASSERT_TRUE(b.results[0].get.entry.has_value());
  EXPECT_EQ(lone.entry->value, b.results[0].get.entry->value);
  EXPECT_EQ(lone.entry->writer, b.results[0].get.entry->writer);
  EXPECT_EQ(lone.entry->seq, b.results[0].get.entry->seq);
  EXPECT_FALSE(lone.failed);
  EXPECT_GT(lone.read_ts, 0u);
}

}  // namespace
}  // namespace faust::kv
