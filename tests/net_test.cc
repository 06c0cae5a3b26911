// Wire format round trips, SimNet delivery ordering/accounting, and UDP
// loopback.
#include <gtest/gtest.h>

#include "datalog/catalog.h"
#include "net/sim_net.h"
#include "net/udp_transport.h"
#include "net/wire.h"

namespace secureblox::net {
namespace {

using datalog::Catalog;
using datalog::Value;
using engine::Tuple;

TEST(WireTest, ValueRoundTripPrimitives) {
  Catalog catalog;
  for (const Value& v :
       {Value::Int(-42), Value::Int(0), Value::Bool(true), Value::Bool(false),
        Value::Str("hello"), Value::Str(""),
        Value::MakeBlob({0x00, 0xFF, 0x10})}) {
    ByteWriter w;
    ASSERT_TRUE(SerializeValue(&w, v, catalog).ok());
    Bytes data = w.Take();
    ByteReader r(data);
    auto back = DeserializeValue(&r, &catalog);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value(), v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(WireTest, EntityRoundTripAcrossCatalogs) {
  // Sender and receiver intern in different orders; labels reconcile.
  Catalog sender, receiver;
  auto type_s = sender.DeclareEntityType("principal").value();
  auto type_r = receiver.DeclareEntityType("principal").value();
  // Receiver has interned other entities first: local ids differ.
  ASSERT_TRUE(receiver.InternEntity(type_r, "zzz").ok());
  Value alice_s = sender.InternEntity(type_s, "alice").value();

  ByteWriter w;
  ASSERT_TRUE(SerializeValue(&w, alice_s, sender).ok());
  Bytes data = w.Take();
  ByteReader r(data);
  Value alice_r = DeserializeValue(&r, &receiver).value();
  EXPECT_EQ(receiver.EntityLabel(alice_r).value(), "alice");
  EXPECT_NE(alice_r.entity_id(), alice_s.entity_id());  // ids are local
}

TEST(WireTest, BatchRoundTrip) {
  Catalog catalog;
  auto principal = catalog.DeclareEntityType("principal").value();
  Value p = catalog.InternEntity(principal, "alice").value();

  WireBatch batch;
  batch.src = 3;
  batch.dst = 7;
  batch.entries.push_back(
      {"says$reachable",
       WireEntryKind::kFacts,
       {{p, p, Value::Int(1)}, {p, p, Value::Int(2)}}});
  batch.entries.push_back(
      {"export", WireEntryKind::kFacts, {{p, Value::MakeBlob({1, 2, 3})}}});

  Bytes data = EncodeBatch(batch, catalog).value();
  WireBatch back = DecodeBatch(data, &catalog).value();
  EXPECT_EQ(back.src, 3u);
  EXPECT_EQ(back.dst, 7u);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].pred, "says$reachable");
  EXPECT_EQ(back.entries[0].tuples.size(), 2u);
  EXPECT_EQ(back.TotalTuples(), 3u);
}

TEST(WireTest, DecodeRejectsCorruption) {
  Catalog catalog;
  WireBatch batch;
  batch.entries.push_back({"p", WireEntryKind::kFacts, {{Value::Int(7)}}});
  Bytes data = EncodeBatch(batch, catalog).value();

  Bytes bad_magic = data;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeBatch(bad_magic, &catalog).ok());

  Bytes truncated(data.begin(), data.end() - 2);
  EXPECT_FALSE(DecodeBatch(truncated, &catalog).ok());

  Bytes trailing = data;
  trailing.push_back(0x00);
  EXPECT_FALSE(DecodeBatch(trailing, &catalog).ok());

  Bytes bad_version = data;
  bad_version[3] = 99;
  EXPECT_FALSE(DecodeBatch(bad_version, &catalog).ok());
}

TEST(WireTest, HandoffSupportMustFitTheRowState) {
  // A receiving row keeps 31 bits of support beside its base flag, so a
  // handoff support count from a peer must stay below 2^31.
  Catalog catalog;
  auto encode = [&](uint32_t support) {
    WireBatch batch;
    WireBatch::Entry entry;
    entry.pred = "p";
    entry.kind = WireEntryKind::kHandoff;
    entry.tuples = {{Value::Int(7)}};
    entry.supports = {support};
    entry.base_flags = {1};
    batch.entries.push_back(std::move(entry));
    return EncodeBatch(batch, catalog).value();
  };
  auto max = DecodeBatch(encode((1u << 31) - 1), &catalog);
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  ASSERT_EQ(max->entries.size(), 1u);
  EXPECT_EQ(max->entries[0].supports, std::vector<uint32_t>{(1u << 31) - 1});
  EXPECT_EQ(max->entries[0].base_flags, std::vector<uint8_t>{1});
  EXPECT_FALSE(DecodeBatch(encode(1u << 31), &catalog).ok());
}

TEST(SimNetTest, DeliversInTimeOrder) {
  SimNet::Config cfg;
  cfg.jitter_frac = 0;  // deterministic latency
  SimNet net(cfg);
  net.Send(0, 1, Bytes(100, 0xAA), 0.0);
  net.Send(0, 2, Bytes(100, 0xBB), 0.001);
  net.Send(1, 0, Bytes(100, 0xCC), 0.0005);

  auto d1 = net.PopNext().value();
  auto d2 = net.PopNext().value();
  auto d3 = net.PopNext().value();
  EXPECT_TRUE(net.empty());
  EXPECT_LE(d1.time_s, d2.time_s);
  EXPECT_LE(d2.time_s, d3.time_s);
  EXPECT_EQ(d1.dst, 1u);
  EXPECT_EQ(d2.dst, 0u);
  EXPECT_EQ(d3.dst, 2u);
}

TEST(SimNetTest, LatencyModelScalesWithSize) {
  SimNet::Config cfg;
  cfg.jitter_frac = 0;
  cfg.base_latency_s = 0.0001;
  cfg.bandwidth_bytes_per_s = 1000;  // absurdly slow to expose size term
  SimNet net(cfg);
  net.Send(0, 1, Bytes(10, 0), 0.0);
  net.Send(0, 1, Bytes(1000, 0), 0.0);
  auto small = net.PopNext().value();
  auto large = net.PopNext().value();
  EXPECT_NEAR(small.time_s, 0.0001 + 10 / 1000.0, 1e-9);
  EXPECT_NEAR(large.time_s, 0.0001 + 1000 / 1000.0, 1e-9);
}

TEST(SimNetTest, ByteAccounting) {
  SimNet net{SimNet::Config{}};
  net.Send(0, 1, Bytes(100, 0), 0.0);
  net.Send(0, 2, Bytes(50, 0), 0.0);
  net.Send(1, 0, Bytes(25, 0), 0.0);
  EXPECT_EQ(net.bytes_sent(0), 150u);
  EXPECT_EQ(net.bytes_sent(1), 25u);
  EXPECT_EQ(net.bytes_received(1), 100u);
  EXPECT_EQ(net.bytes_received(0), 25u);
  EXPECT_EQ(net.messages_sent(0), 2u);
  EXPECT_EQ(net.total_bytes(), 175u);
  EXPECT_EQ(net.total_messages(), 3u);
}

TEST(SimNetTest, FifoTieBreakAtEqualTimes) {
  SimNet::Config cfg;
  cfg.jitter_frac = 0;
  SimNet net(cfg);
  Bytes payload(10, 0);
  for (int i = 0; i < 5; ++i) net.Send(0, 1, payload, 0.0);
  uint64_t last_seq = 0;
  for (int i = 0; i < 5; ++i) {
    auto d = net.PopNext().value();
    if (i > 0) EXPECT_GT(d.seq, last_seq);
    last_seq = d.seq;
  }
}

TEST(UdpTransportTest, LoopbackRoundTrip) {
  std::vector<UdpEndpoint> eps = {{"127.0.0.1", 0}, {"127.0.0.1", 0}};
  auto a = UdpTransport::Bind(0, eps);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = UdpTransport::Bind(1, eps);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // Exchange the ephemeral ports.
  a->SetEndpoint(1, {"127.0.0.1", b->local_port()});
  b->SetEndpoint(0, {"127.0.0.1", a->local_port()});

  Bytes msg = BytesFromString("hello over udp");
  ASSERT_TRUE(a->Send(1, msg).ok());
  auto got = b->PollFor(2000);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, msg);
  EXPECT_EQ(a->bytes_sent(), msg.size());
  EXPECT_EQ(b->bytes_received(), msg.size());
}

TEST(UdpTransportTest, PollWithoutDataReturnsEmpty) {
  std::vector<UdpEndpoint> eps = {{"127.0.0.1", 0}};
  auto t = UdpTransport::Bind(0, eps);
  ASSERT_TRUE(t.ok());
  auto got = t->Poll();
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->has_value());
}

TEST(UdpTransportTest, SendToUnknownPeerFails) {
  std::vector<UdpEndpoint> eps = {{"127.0.0.1", 0}};
  auto t = UdpTransport::Bind(0, eps);
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(t->Send(5, Bytes{1}).ok());
}

}  // namespace
}  // namespace secureblox::net
