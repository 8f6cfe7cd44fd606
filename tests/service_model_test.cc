// Model-based test of the in-process FilterService: four client threads run
// seeded random mixes of InsertBatchSync, QueryBatchSync, QueryBatchAsync and
// filter().SerializeTo -> ShardedFilter::Deserialize against one 2-worker
// service, each checking every answer against its own oracle of
// acknowledged keys.  Properties:
//   - no false negatives: a key whose InsertBatchSync returned answers 1 on
//     every later query, sync or queued;
//   - exactly one callback per QueryBatchAsync submit (counted by submit id);
//   - a restored snapshot answers every key acknowledged before the
//     SerializeTo() call, even while other threads keep inserting.
// Network reconnect and overload interleavings are out of scope here.
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/filter_service.h"
#include "src/util/random.h"

namespace prefixfilter {
namespace {

constexpr int kClients = 4;
constexpr int kOpsPerClient = 300;
constexpr uint64_t kMaxBatch = 256;

// One client's view: the keys its own InsertBatchSync calls acknowledged.
// `acked` keeps insertion order for sampling; `oracle` answers membership.
struct Model {
  std::unordered_set<uint64_t> oracle;
  std::vector<uint64_t> acked;
};

// A probe batch: about half acknowledged keys, half fresh draws (almost
// surely negative), with the answer each key must at least give.
void MakeProbe(const Model& model, Xoshiro256& rng, std::vector<uint64_t>* keys,
               std::vector<uint8_t>* must_hit) {
  const size_t count = 1 + rng.Below(kMaxBatch);
  keys->resize(count);
  must_hit->resize(count);
  for (size_t i = 0; i < count; ++i) {
    const bool positive = !model.acked.empty() && (rng.Next() & 1) != 0;
    (*keys)[i] = positive ? model.acked[rng.Below(model.acked.size())]
                          : rng.Next();
    (*must_hit)[i] = model.oracle.count((*keys)[i]) != 0 ? 1 : 0;
  }
}

uint64_t CountMisses(const std::vector<uint8_t>& must_hit,
                     const std::vector<uint8_t>& answers) {
  if (answers.size() != must_hit.size()) return must_hit.size();
  uint64_t misses = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    misses += must_hit[i] != 0 && answers[i] == 0;
  }
  return misses;
}

TEST(ServiceModel, RandomMixAgreesWithPerClientOracles) {
  // Sized for the worst case (every op an insert of kMaxBatch keys), so an
  // insert failure is a defect, not a full filter.
  const uint64_t capacity = uint64_t{kClients} * kOpsPerClient * kMaxBatch;
  auto sharded = ShardedFilter::Make(capacity, {.num_shards = 16, .seed = 7});
  ASSERT_NE(sharded, nullptr);

  // Everything the callbacks touch is declared before the service, so it
  // outlives the service's workers.
  std::atomic<uint64_t> keys_inserted{0};
  std::atomic<uint64_t> insert_failures{0};
  std::atomic<uint64_t> sync_misses{0};
  std::atomic<uint64_t> async_misses{0};
  std::atomic<uint64_t> snapshot_misses{0};
  std::atomic<uint64_t> bad_restores{0};
  std::atomic<uint64_t> snapshots{0};
  // callbacks[c][id]: completions seen for client c's id-th submit.
  std::vector<std::vector<std::atomic<uint32_t>>> callbacks(kClients);
  std::vector<std::vector<uint8_t>> submitted(kClients);
  std::vector<Model> models(kClients);
  for (int c = 0; c < kClients; ++c) {
    callbacks[c] = std::vector<std::atomic<uint32_t>>(kOpsPerClient);
    submitted[c].assign(kOpsPerClient, 0);
  }
  obs::MetricsRegistry registry;  // local: keep the global registry clean
  FilterService service(std::move(sharded),
                        {.num_threads = 2, .registry = &registry});

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      Xoshiro256 rng(0x5eed0000u + static_cast<uint64_t>(c));
      Model& model = models[c];
      std::vector<uint64_t> keys;
      std::vector<uint8_t> must_hit;
      for (int op = 0; op < kOpsPerClient; ++op) {
        const uint64_t dice = rng.Below(100);
        if (dice < 40) {
          keys.resize(1 + rng.Below(kMaxBatch));
          for (uint64_t& k : keys) k = rng.Next();
          insert_failures += service.InsertBatchSync(keys.data(), keys.size());
          keys_inserted += keys.size();
          for (uint64_t k : keys) {
            if (model.oracle.insert(k).second) model.acked.push_back(k);
          }
        } else if (dice < 65) {
          MakeProbe(model, rng, &keys, &must_hit);
          std::vector<uint8_t> answers(keys.size());
          service.QueryBatchSync(keys.data(), keys.size(), answers.data());
          sync_misses += CountMisses(must_hit, answers);
        } else if (dice < 95) {
          MakeProbe(model, rng, &keys, &must_hit);
          submitted[c][op] = 1;
          std::atomic<uint32_t>* seen = &callbacks[c][op];
          service.QueryBatchAsync(
              keys, [&async_misses, seen, must_hit = must_hit](
                        std::vector<uint8_t> answers) {
                seen->fetch_add(1);
                async_misses += CountMisses(must_hit, answers);
              });
        } else {
          // Everything this client acknowledged so far must be in the image.
          const std::vector<uint64_t> before = model.acked;
          std::vector<uint8_t> image;
          service.filter().SerializeTo(&image);
          snapshots.fetch_add(1);
          auto restored =
              ShardedFilter::Deserialize(image.data(), image.size());
          if (restored == nullptr) {
            bad_restores.fetch_add(1);
            continue;
          }
          std::vector<uint8_t> answers(before.size());
          restored->ContainsBatch(before.data(), before.size(), answers.data());
          for (uint8_t a : answers) snapshot_misses += a == 0;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  service.Drain();

  EXPECT_EQ(insert_failures.load(), 0u);
  EXPECT_EQ(sync_misses.load(), 0u);
  EXPECT_EQ(async_misses.load(), 0u);
  EXPECT_EQ(snapshot_misses.load(), 0u);
  EXPECT_EQ(bad_restores.load(), 0u);
  EXPECT_GT(snapshots.load(), 0u);
  uint64_t async_submits = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int op = 0; op < kOpsPerClient; ++op) {
      ASSERT_EQ(callbacks[c][op].load(), submitted[c][op])
          << "client " << c << " op " << op;
      async_submits += submitted[c][op];
    }
  }
  EXPECT_GT(async_submits, 0u);

  // The final state holds every acknowledged key, and the shards counted
  // each inserted key exactly once.
  for (const Model& model : models) {
    std::vector<uint8_t> answers(model.acked.size());
    service.QueryBatchSync(model.acked.data(), model.acked.size(),
                           answers.data());
    uint64_t misses = 0;
    for (uint8_t a : answers) misses += a == 0;
    EXPECT_EQ(misses, 0u);
  }
  EXPECT_EQ(service.filter().TotalStats().inserts, keys_inserted.load());
}

}  // namespace
}  // namespace prefixfilter
