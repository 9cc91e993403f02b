// Tests for the key-value layer over FAUST registers, driven through the
// unified faust::api::Store facade (the kv::KvClient engine underneath is
// additionally pinned by the differential tests, which replay against it
// directly as the oracle).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/forking_server.h"
#include "api/store.h"
#include "common/rng.h"
#include "faust/cluster.h"
#include "kvstore/kv_client.h"

namespace faust::kv {
namespace {

struct KvFixture : ::testing::Test {
  ClusterConfig cfg;
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<api::Store>> stores;

  void SetUp() override {
    cfg.n = 3;
    cfg.seed = 55;
    cfg.faust.dummy_read_period = 0;  // keep op streams deterministic
    cfg.faust.probe_check_period = 0;
    cluster = std::make_unique<Cluster>(cfg);
    for (ClientId i = 1; i <= cfg.n; ++i) {
      stores.push_back(api::open_store(*cluster, i));
    }
  }

  api::Store& store(ClientId i) { return *stores[static_cast<std::size_t>(i - 1)]; }

  api::PutResult put(ClientId i, const std::string& k, const std::string& v) {
    return store(i).put(k, v).settle();
  }

  api::GetResult get(ClientId i, const std::string& k) {
    return store(i).get(k).settle();
  }

  api::ListResult list(ClientId i) { return store(i).list().settle(); }

  api::PutResult erase(ClientId i, const std::string& k) {
    return store(i).erase(k).settle();
  }
};

TEST_F(KvFixture, PutGetAcrossClients) {
  const api::PutResult p = put(1, "title", "FAUST");
  EXPECT_GT(p.ts, 0u);
  EXPECT_FALSE(p.failed);
  const api::GetResult e = get(2, "title");
  ASSERT_TRUE(e.entry.has_value());
  EXPECT_EQ(e.entry->value, "FAUST");
  EXPECT_EQ(e.entry->writer, 1);
  EXPECT_GT(e.read_ts, 0u) << "single-deployment gets report their observing reads too";
  EXPECT_FALSE(e.failed);
}

TEST_F(KvFixture, MissingKeyIsNullopt) {
  EXPECT_FALSE(get(1, "nothing").entry.has_value());
  ASSERT_GT(put(2, "a", "1").ts, 0u);
  EXPECT_FALSE(get(1, "b").entry.has_value());
}

TEST_F(KvFixture, OwnOverwriteWins) {
  ASSERT_GT(put(1, "k", "v1").ts, 0u);
  ASSERT_GT(put(1, "k", "v2").ts, 0u);
  const api::GetResult e = get(3, "k");
  ASSERT_TRUE(e.entry.has_value());
  EXPECT_EQ(e.entry->value, "v2");
  EXPECT_EQ(e.entry->seq, 2u);
}

TEST_F(KvFixture, CrossWriterConflictResolvedDeterministically) {
  // Same key written by two clients; winner = larger (seq, writer).
  ASSERT_GT(put(1, "k", "from-1").ts, 0u);  // seq 1, writer 1
  ASSERT_GT(put(2, "k", "from-2").ts, 0u);  // seq 1, writer 2 -> wins on writer id
  for (ClientId reader = 1; reader <= 3; ++reader) {
    const api::GetResult e = get(reader, "k");
    ASSERT_TRUE(e.entry.has_value());
    EXPECT_EQ(e.entry->value, "from-2") << "reader " << reader;
    EXPECT_EQ(e.entry->writer, 2);
  }
  // Client 1 writes again: seq 2 beats seq 1 regardless of writer id.
  ASSERT_GT(put(1, "k", "from-1-again").ts, 0u);
  const api::GetResult e = get(3, "k");
  EXPECT_EQ(e.entry->value, "from-1-again");
}

TEST_F(KvFixture, EraseRemovesOwnEntryOnly) {
  ASSERT_GT(put(1, "k", "mine").ts, 0u);
  ASSERT_GT(put(2, "k", "theirs").ts, 0u);
  ASSERT_GT(erase(2, "k").ts, 0u);
  const api::GetResult e = get(3, "k");
  ASSERT_TRUE(e.entry.has_value()) << "client 1's entry must survive";
  EXPECT_EQ(e.entry->value, "mine");
  ASSERT_GT(erase(1, "k").ts, 0u);
  EXPECT_FALSE(get(3, "k").entry.has_value());
}

TEST_F(KvFixture, EraseOfAbsentKeyIssuesNoRegisterWrite) {
  // The no-op-publish satellite: erasing a key the caller never wrote
  // must not re-sign and republish the unchanged partition.
  ASSERT_GT(put(1, "present", "v").ts, 0u);
  const std::uint64_t msgs_before = cluster->net().total().messages;
  const std::uint64_t sched_before = cluster->sched().executed();

  const api::PutResult r = erase(1, "never-written");
  EXPECT_EQ(r.ts, 0u) << "no publication happened, so there is no write timestamp";
  EXPECT_FALSE(r.failed) << "a no-op erase is a success, not a failure";

  EXPECT_EQ(cluster->net().total().messages, msgs_before)
      << "no-op erase must not put a register write (or anything else) on the wire";
  EXPECT_EQ(cluster->sched().executed(), sched_before)
      << "the op completes inline, without scheduling protocol events";

  // And the sequence counter did not advance: the next put's entry gets
  // the seq right after the first put's.
  ASSERT_GT(put(1, "present", "v2").ts, 0u);
  EXPECT_EQ(get(2, "present").entry->seq, 2u);
}

TEST_F(KvFixture, ListMergesAllPartitions) {
  ASSERT_GT(put(1, "a", "1").ts, 0u);
  ASSERT_GT(put(2, "b", "2").ts, 0u);
  ASSERT_GT(put(3, "c", "3").ts, 0u);
  const api::ListResult m = list(1);
  EXPECT_TRUE(m.complete);
  ASSERT_EQ(m.entries.size(), 3u);
  EXPECT_EQ(m.entries.at("a").value, "1");
  EXPECT_EQ(m.entries.at("b").value, "2");
  EXPECT_EQ(m.entries.at("c").value, "3");
  EXPECT_EQ(m.entries.at("c").writer, 3);
}

TEST_F(KvFixture, ManyKeysRoundtrip) {
  for (int k = 0; k < 20; ++k) {
    ASSERT_GT(put((k % 3) + 1, "key" + std::to_string(k), "val" + std::to_string(k)).ts, 0u);
  }
  const api::ListResult m = list(2);
  ASSERT_EQ(m.entries.size(), 20u);
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(m.entries.at("key" + std::to_string(k)).value, "val" + std::to_string(k));
  }
}

TEST(KvCodec, MapRoundtripAndMalformedRejected) {
  std::map<std::string, std::pair<std::string, std::uint64_t>> m;
  m["alpha"] = {"1", 7};
  m["beta"] = {"two", 9};
  const Bytes enc = encode_map(m);
  const auto back = decode_map(enc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);

  Bytes truncated(enc.begin(), enc.end() - 3);
  EXPECT_FALSE(decode_map(truncated).has_value());
  Bytes padded = enc;
  padded.push_back(0);
  EXPECT_FALSE(decode_map(padded).has_value());
  EXPECT_TRUE(decode_map(encode_map({})).has_value());
}

TEST(MergedView, FindAgreesWithAllOnRandomPartitions) {
  // Point lookups never merge: find() runs one binary search per
  // partition view. Over random partitions — ⊥ slots, undecodable (empty)
  // ones, and seq ties across writers — it must name exactly the entry
  // the full merge picks, and nothing for a key no partition holds. The
  // reference scans the owning partitions the views were decoded from.
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.next_below(5);
    std::vector<std::shared_ptr<const Partition>> owned(n);
    std::vector<std::shared_ptr<const PartitionView>> parts(n);
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint64_t kind = rng.next_below(6);
      if (kind == 0) continue;  // ⊥
      Partition p;
      if (kind > 1) {
        for (int k = 0; k < 24; ++k) {
          if (rng.next_below(2) == 0) continue;
          // Seqs from a tiny range: equal (seq) pairs across writers are
          // common, so the writer tie-break is exercised.
          p.push_back(PartitionEntry{"k" + std::to_string(10 + k),
                                     "v" + std::to_string(rng.next_below(1000)),
                                     1 + rng.next_below(3)});
        }
      }
      auto view = decode_partition(encode_partition(p));
      ASSERT_TRUE(view.has_value());
      ASSERT_EQ(view->size(), p.size());
      parts[s] = std::make_shared<const PartitionView>(std::move(*view));
      owned[s] = std::make_shared<const Partition>(std::move(p));
    }
    const MergedView view(parts);
    std::vector<std::string> probes = {"", "k", "k09", "k34", "zz"};
    for (int k = 0; k < 24; ++k) probes.push_back("k" + std::to_string(10 + k));
    for (const std::string& key : probes) {
      // Reference: the largest (seq, writer) over the partitions holding key.
      std::optional<KvEntry> want;
      for (std::size_t slot = 0; slot < n; ++slot) {
        if (!owned[slot]) continue;
        for (const PartitionEntry& e : *owned[slot]) {
          const ClientId j = static_cast<ClientId>(slot + 1);
          if (e.key == key && (!want || e.seq > want->seq || (e.seq == want->seq && j > want->writer))) {
            want = KvEntry{e.value, j, e.seq};
          }
        }
      }
      const std::optional<KvEntry> got = view.find(key);
      ASSERT_EQ(got, want) << "trial " << trial << " key '" << key << "'";
      const auto it = view.all().find(key);
      ASSERT_EQ(it != view.all().end(), want.has_value()) << "trial " << trial << " key " << key;
      if (want) {
        EXPECT_EQ(it->second, *want);
      }
    }
    // all() builds once; a view seeded with that map serves it as is.
    ASSERT_NE(view.built(), nullptr);
    EXPECT_EQ(&view.all(), view.built().get());
    const MergedView seeded(parts, view.built());
    EXPECT_EQ(&seeded.all(), view.built().get());
  }
}

TEST(PartitionView, IndexesThePinnedBytesWithoutCopying) {
  Partition p;
  p.push_back(PartitionEntry{"", "empty key", 1});
  p.push_back(PartitionEntry{"alpha", "", 2});
  p.push_back(PartitionEntry{"beta", std::string(100, 'b'), 3});
  auto buffer = std::make_shared<const Bytes>(encode_partition(p));
  const char* const begin = reinterpret_cast<const char*>(buffer->data());
  const char* const end = begin + buffer->size();
  auto view = decode_partition(SharedBytes::slice(buffer, BytesView(*buffer)));
  buffer.reset();  // the view is now the only owner
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->size(), 3u);
  for (std::size_t i = 0; i < p.size(); ++i) {
    const PartitionView::EntryRef e = (*view)[i];
    EXPECT_EQ(e.key, p[i].key);
    EXPECT_EQ(e.value, p[i].value);
    EXPECT_EQ(e.seq, p[i].seq);
    EXPECT_EQ(view->find(p[i].key), i);
    // Keys and values are views into the pinned buffer, not copies.
    EXPECT_TRUE(e.key.data() >= begin && e.key.data() + e.key.size() <= end);
    EXPECT_TRUE(e.value.data() >= begin && e.value.data() + e.value.size() <= end);
  }
  EXPECT_EQ(view->find("alp"), view->size());
  EXPECT_EQ(view->find("gamma"), view->size());
  const PartitionView copy = *view;  // a copy shares the bytes
  view.reset();
  EXPECT_EQ(copy[2].value, std::string(100, 'b'));
}

TEST(KvUnderAttack, ForkDetectionFlowsThroughTheStoreFacade) {
  // The store inherits fail-awareness: a forked view is detected at the
  // FAUST layer and the application learns about it via on_event.
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 66;
  cfg.with_server = false;
  cfg.faust.dummy_read_period = 400;
  cfg.faust.probe_interval = 3'000;
  cfg.faust.probe_check_period = 700;
  Cluster cluster(cfg);
  adversary::ForkingServer server(cfg.n, cluster.net());
  auto kv1 = api::open_store(cluster, 1);
  auto kv2 = api::open_store(cluster, 2);

  bool fail_event = false;
  kv1->on_event([&](const api::Event& e) {
    if (e.kind == api::Event::Kind::kShardFailed) {
      EXPECT_EQ(e.shard, 0u);
      fail_event = true;
    }
  });

  ASSERT_GT(kv1->put("secret", "v1").settle().ts, 0u);
  server.isolate(2);  // fork the second client away
  ASSERT_GT(kv2->put("secret", "forked").settle().ts, 0u);

  cluster.run_for(300'000);
  EXPECT_TRUE(cluster.all_failed()) << "clients learn their provider forked them";
  EXPECT_TRUE(fail_event) << "the failure surfaced through the unified event hook";
  EXPECT_TRUE(kv1->failed(0));
  EXPECT_TRUE(kv1->any_failed());
}

}  // namespace
}  // namespace faust::kv
