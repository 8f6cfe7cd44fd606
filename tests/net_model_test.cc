// Model-based test of the networked membership service: three client
// threads run seeded random mixes over loopback against one two-loop,
// two-worker server, each checking every answer against its own oracle of
// acknowledged keys.  The mix: InsertBatch on both sides of the loop's insert
// slice budget, QueryBatch, QueryPipelined, an INSERT_BATCH with a
// QUERY_BATCH pipelined right behind it (no wait for the ack), and Snapshot
// -> ShardedFilter::Deserialize.  Properties:
//   - no false negatives: a key whose insert was acknowledged answers 1 on
//     every later query, including a query sent behind the insert before
//     its ack arrived;
//   - exactly one response per request id, the insert's ack first when a
//     query rides behind it;
//   - a restored snapshot answers every key the thread had acknowledged
//     before asking for it, while the other threads keep inserting.
// A second case re-delivers insert batches near capacity, as a reconnect
// retry does.  Reconnect and overload interleavings are otherwise out of
// scope here.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/membership_client.h"
#include "src/net/membership_server.h"
#include "src/util/random.h"

namespace prefixfilter::net {
namespace {

constexpr int kClients = 3;
constexpr int kOpsPerClient = 120;
constexpr size_t kSliceKeys = MembershipServer::kInsertSliceKeys;
constexpr size_t kMaxInsert = 8 * kSliceKeys;
constexpr size_t kMaxProbe = 3000;

// One client's view: the keys its own inserts acknowledged.  `acked` keeps
// insertion order for sampling; `oracle` answers membership.
struct Model {
  std::unordered_set<uint64_t> oracle;
  std::vector<uint64_t> acked;

  void Ack(const std::vector<uint64_t>& keys) {
    for (uint64_t k : keys) {
      if (oracle.insert(k).second) acked.push_back(k);
    }
  }
};

// Fresh keys: 1..kSliceKeys (served inline) or above the budget (sliced).
void MakeInsert(Xoshiro256& rng, std::vector<uint64_t>* keys) {
  const size_t count =
      (rng.Next() & 1) != 0
          ? 1 + rng.Below(kSliceKeys)
          : kSliceKeys + 1 + rng.Below(kMaxInsert - kSliceKeys);
  keys->resize(count);
  for (uint64_t& k : *keys) k = rng.Next();
}

// About half acknowledged keys, half fresh draws (almost surely negative),
// with the answer each key must at least give.
void MakeProbe(const Model& model, Xoshiro256& rng, size_t max_count,
               std::vector<uint64_t>* keys, std::vector<uint8_t>* must_hit) {
  const size_t count = 1 + rng.Below(max_count);
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

// Blocking connection for what MembershipClient has no call for: frames
// pipelined behind an INSERT_BATCH before its ack arrives.
class RawPipe {
 public:
  explicit RawPipe(uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ok_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                sizeof(addr)) == 0;
  }
  ~RawPipe() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawPipe(const RawPipe&) = delete;
  RawPipe& operator=(const RawPipe&) = delete;

  bool ok() const { return ok_; }

  bool Send(const std::vector<uint8_t>& bytes) {
    size_t sent = 0;
    while (ok_ && sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) ok_ = false;
      else sent += static_cast<size_t>(n);
    }
    return ok_;
  }

  // Blocks until one frame arrives; false on EOF or a protocol error.
  bool Read(Frame* frame) {
    uint8_t buf[65536];
    while (ok_) {
      const DecodeStatus status = decoder_.Next(frame);
      if (status == DecodeStatus::kFrame) return true;
      if (status != DecodeStatus::kNeedMore) break;
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
    ok_ = false;
    return false;
  }

 private:
  int fd_;
  bool ok_ = false;
  FrameDecoder decoder_;
};

// Per-thread tallies, summed after the join.
struct Tally {
  uint64_t keys_inserted = 0;
  uint64_t insert_failures = 0;
  uint64_t query_misses = 0;     // false negatives, QueryBatch/QueryPipelined
  uint64_t pipelined_misses = 0; // false negatives behind an unacked insert
  uint64_t snapshot_misses = 0;
  uint64_t snapshots = 0;
  uint64_t pipelined_ops = 0;
  uint64_t bad_restores = 0;
  uint64_t bad_responses = 0;    // wrong id, order, opcode or payload
  uint64_t transport_errors = 0;
};

// INSERT_BATCH(keys) and QUERY_BATCH(probe) sent back to back; exactly two
// responses must come back, the ack first.  *answers is left empty on any
// failure.
void PipelinedInsertThenQuery(RawPipe& pipe, uint64_t* next_id,
                              const std::vector<uint64_t>& keys,
                              const std::vector<uint64_t>& probe,
                              std::vector<uint8_t>* answers, Tally* tally) {
  answers->clear();
  const uint64_t insert_id = (*next_id)++;
  const uint64_t query_id = (*next_id)++;
  std::vector<uint8_t> bytes;
  EncodeKeyBatchRequest(Opcode::kInsertBatch, insert_id, keys.data(),
                        keys.size(), &bytes);
  EncodeKeyBatchRequest(Opcode::kQueryBatch, query_id, probe.data(),
                        probe.size(), &bytes);
  Frame ack, reply;
  if (!pipe.Send(bytes) || !pipe.Read(&ack) || !pipe.Read(&reply)) {
    ++tally->transport_errors;
    return;
  }
  uint64_t failures = 0;
  if (ack.request_id != insert_id || !ack.is_response() || ack.is_error() ||
      !DecodeInsertResponsePayload(ack.payload.data(), ack.payload.size(),
                                   &failures) ||
      reply.request_id != query_id || !reply.is_response() ||
      reply.is_error() ||
      !DecodeQueryResponsePayload(reply.payload.data(), reply.payload.size(),
                                  answers) ||
      answers->size() != probe.size()) {
    ++tally->bad_responses;
    answers->clear();
    return;
  }
  tally->insert_failures += failures;
}

TEST(NetModel, RandomMixOverLoopbackAgreesWithPerClientOracles) {
  // Sized for the worst case (every op inserting kMaxInsert keys), so an
  // insert failure is a defect, not a full filter.
  const uint64_t capacity = uint64_t{kClients} * kOpsPerClient * kMaxInsert;
  std::shared_ptr<FilterService> service = MakeFilterService(
      "SHARD16[PF[TC]]", capacity, {.num_threads = 2});
  ASSERT_NE(service, nullptr);
  ServerOptions options;
  options.num_loops = 2;
  MembershipServer server(service, options);
  ASSERT_TRUE(server.Start()) << server.error();
  const uint16_t port = server.port();

  std::vector<Model> models(kClients);
  std::vector<Tally> tallies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      Xoshiro256 rng(0x4e7d0000u + static_cast<uint64_t>(c));
      Model& model = models[c];
      Tally& tally = tallies[c];
      MembershipClient client(ClientOptions{
          .port = port, .max_batch_keys = 512, .pipeline_depth = 4});
      RawPipe pipe(port);
      if (!client.Connect() || !pipe.ok()) {
        ++tally.transport_errors;
        return;
      }
      uint64_t raw_id = 1;
      std::vector<uint64_t> keys, probe;
      std::vector<uint8_t> must_hit, answers;
      for (int op = 0; op < kOpsPerClient; ++op) {
        const uint64_t dice = rng.Below(100);
        if (dice < 30) {
          MakeInsert(rng, &keys);
          uint64_t failures = 0;
          if (!client.InsertBatch(keys.data(), keys.size(), &failures)) {
            ++tally.transport_errors;
            return;
          }
          tally.insert_failures += failures;
          tally.keys_inserted += keys.size();
          model.Ack(keys);
        } else if (dice < 45) {
          // The probe asks for the new keys too: they must already be in.
          MakeInsert(rng, &keys);
          MakeProbe(model, rng, kMaxProbe, &probe, &must_hit);
          probe.insert(probe.end(), keys.begin(), keys.end());
          must_hit.resize(probe.size(), 1);
          PipelinedInsertThenQuery(pipe, &raw_id, keys, probe, &answers,
                                   &tally);
          if (answers.empty()) return;
          ++tally.pipelined_ops;
          tally.keys_inserted += keys.size();
          tally.pipelined_misses += CountMisses(must_hit, answers);
          model.Ack(keys);
        } else if (dice < 70) {
          MakeProbe(model, rng, kMaxProbe, &probe, &must_hit);
          if (!client.QueryBatch(probe.data(), probe.size(), &answers)) {
            ++tally.transport_errors;
            return;
          }
          tally.query_misses += CountMisses(must_hit, answers);
        } else if (dice < 96) {
          MakeProbe(model, rng, 2 * kMaxProbe, &probe, &must_hit);
          if (!client.QueryPipelined(probe.data(), probe.size(), &answers)) {
            ++tally.transport_errors;
            return;
          }
          tally.query_misses += CountMisses(must_hit, answers);
        } else {
          // Everything this thread acknowledged so far must be in the image.
          const std::vector<uint64_t> before = model.acked;
          std::vector<uint8_t> image;
          if (!client.Snapshot(&image)) {
            ++tally.transport_errors;
            return;
          }
          ++tally.snapshots;
          auto restored =
              ShardedFilter::Deserialize(image.data(), image.size());
          if (restored == nullptr) {
            ++tally.bad_restores;
            continue;
          }
          answers.resize(before.size());
          restored->ContainsBatch(before.data(), before.size(),
                                  answers.data());
          for (uint8_t a : answers) tally.snapshot_misses += a == 0;
        }
      }
      // No stray frame trails the raw connection's last response: the next
      // frame on it answers a fresh request.
      std::vector<uint8_t> stats_request;
      EncodeEmptyRequest(Opcode::kStats, raw_id, &stats_request);
      Frame reply;
      if (!pipe.Send(stats_request) || !pipe.Read(&reply)) {
        ++tally.transport_errors;
      } else if (reply.request_id != raw_id) {
        ++tally.bad_responses;
      }
      if (client.frames_sent() != client.frames_received() ||
          client.reconnects() != 0 || client.remote_errors() != 0) {
        ++tally.bad_responses;
      }
    });
  }
  for (auto& t : clients) t.join();

  Tally total;
  for (const Tally& t : tallies) {
    total.keys_inserted += t.keys_inserted;
    total.insert_failures += t.insert_failures;
    total.query_misses += t.query_misses;
    total.pipelined_misses += t.pipelined_misses;
    total.snapshot_misses += t.snapshot_misses;
    total.snapshots += t.snapshots;
    total.pipelined_ops += t.pipelined_ops;
    total.bad_restores += t.bad_restores;
    total.bad_responses += t.bad_responses;
    total.transport_errors += t.transport_errors;
  }
  EXPECT_EQ(total.transport_errors, 0u);
  EXPECT_EQ(total.bad_responses, 0u);
  EXPECT_EQ(total.insert_failures, 0u);
  EXPECT_EQ(total.query_misses, 0u);
  EXPECT_EQ(total.pipelined_misses, 0u);
  EXPECT_EQ(total.snapshot_misses, 0u);
  EXPECT_EQ(total.bad_restores, 0u);
  EXPECT_GT(total.snapshots, 0u);
  EXPECT_GT(total.pipelined_ops, 0u);

  // The final state holds every acknowledged key, and the shards counted
  // each inserted key exactly once.
  MembershipClient checker(ClientOptions{.port = port});
  for (const Model& model : models) {
    std::vector<uint8_t> answers;
    ASSERT_TRUE(checker.QueryPipelined(model.acked.data(), model.acked.size(),
                                       &answers))
        << checker.error();
    uint64_t misses = 0;
    for (uint8_t a : answers) misses += a == 0;
    EXPECT_EQ(misses, 0u);
  }
  EXPECT_EQ(service->filter().TotalStats().inserts, total.keys_inserted);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_sent, stats.frames_received);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.connections_dropped, 0u);
}

// At-least-once delivery near capacity: a client re-sends the same insert
// batches, as an auto_reconnect retry does, until duplicates overflow the
// spare and acks start reporting failures.  A failed insert must never cost
// a key an earlier ack reported as absorbed: every key of a batch acked with
// failures = 0 answers 1 at the end.
TEST(NetModel, RedeliveredBatchesNearCapacityKeepEveryAckedKey) {
  constexpr size_t kBatch = 4096;
  constexpr uint64_t kCapacity = (uint64_t{1} << 16) + kBatch;
  std::shared_ptr<FilterService> service =
      MakeFilterService("SHARD4[PF[TC]]", kCapacity, {.num_threads = 1});
  ASSERT_NE(service, nullptr);
  MembershipServer server(service, ServerOptions{});
  ASSERT_TRUE(server.Start()) << server.error();
  MembershipClient client(ClientOptions{.port = server.port()});

  // One batch of its own, then half the capacity re-delivered three times.
  const std::vector<uint64_t> first = RandomKeys(kBatch, 0x7e1);
  const std::vector<uint64_t> repeated = RandomKeys(kCapacity / 2, 0x7e2);
  std::vector<uint64_t> acked;  // keys of batches acked with failures = 0
  uint64_t failed_batches = 0;
  auto deliver = [&](const uint64_t* keys, size_t count) {
    uint64_t failures = 0;
    ASSERT_TRUE(client.InsertBatch(keys, count, &failures)) << client.error();
    if (failures == 0) {
      acked.insert(acked.end(), keys, keys + count);
    } else {
      ++failed_batches;
    }
  };
  deliver(first.data(), first.size());
  for (int round = 0; round < 3; ++round) {
    for (size_t base = 0; base < repeated.size(); base += kBatch) {
      deliver(repeated.data() + base,
              std::min(kBatch, repeated.size() - base));
    }
  }
  ASSERT_GT(failed_batches, 0u) << "re-delivery never reached spare failure";
  ASSERT_GE(acked.size(), first.size());

  std::vector<uint8_t> answers;
  ASSERT_TRUE(client.QueryPipelined(acked.data(), acked.size(), &answers))
      << client.error();
  uint64_t misses = 0;
  for (uint8_t a : answers) misses += a == 0;
  EXPECT_EQ(misses, 0u) << "of " << acked.size() << " acked keys";
}

}  // namespace
}  // namespace prefixfilter::net
