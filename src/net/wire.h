// Wire format for inter-node fact batches and for value serialization.
//
// Values serialize with a kind tag; entities serialize as (type name,
// label) so the receiving node can re-intern them in its own catalog —
// entity intern ids are node-local, labels are global.
//
// Batch layout (all integers big-endian, strings/blobs varint-length
// prefixed):
//   magic "SB" | version u16 | src u32 | dst u32 | origin u32
//     | route_shard u32 | map_epoch u64 | #entries varint
//   entry: pred name | kind u8 | #tuples varint | tuple: #values varint
//     | values... [| support varint | base u8  (kind = handoff only)]
//
// v2 adds the shard-routing fields and the per-entry kind. `route_shard`
// is kNoShard for ordinary export batches; placement batches carry the
// target shard plus the sender's shard-map epoch so a receiver that is no
// longer (or not yet) the owner can re-route instead of dropping, and
// `origin` survives forwarding hops (src is rewritten per hop, origin is
// the staging node). Entry kinds distinguish plain facts from placement
// deltas (engine/placement.h); handoff rows carry a support count and a
// base flag per tuple.
#ifndef SECUREBLOX_NET_WIRE_H_
#define SECUREBLOX_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "datalog/catalog.h"
#include "engine/tuple.h"

namespace secureblox::net {

/// Logical node index within a deployment (maps to an address).
using NodeIndex = uint32_t;

constexpr uint16_t kWireVersion = 2;

/// route_shard value for batches that are not shard-routed.
constexpr uint32_t kNoShard = 0xFFFFFFFFu;

/// Per-entry payload kind. kFacts is the pre-placement export path
/// (plain fact insertions); the rest mirror engine::RemoteDelta::Kind.
enum class WireEntryKind : uint8_t {
  kFacts = 0,
  kBaseInsert = 1,
  kBaseDelete = 2,
  kSupportAdd = 3,
  kSupportDrop = 4,
  kHandoff = 5,
};

/// Serialize one value (catalog needed for entity labels).
Status SerializeValue(ByteWriter* w, const datalog::Value& v,
                      const datalog::Catalog& catalog);

/// Deserialize one value; entities are interned into `catalog`.
Result<datalog::Value> DeserializeValue(ByteReader* r,
                                        datalog::Catalog* catalog);

Status SerializeTuple(ByteWriter* w, const engine::Tuple& t,
                      const datalog::Catalog& catalog);
Result<engine::Tuple> DeserializeTuple(ByteReader* r,
                                       datalog::Catalog* catalog);

/// A batch of facts or placement deltas shipped to one node.
struct WireBatch {
  NodeIndex src = 0;
  NodeIndex dst = 0;
  /// Node that staged the batch (= src until a re-route hop rewrites src).
  NodeIndex origin = 0;
  /// Target shard for placement batches, kNoShard for exports.
  uint32_t route_shard = kNoShard;
  /// Sender's shard-map epoch when the batch was staged.
  uint64_t map_epoch = 0;
  struct Entry {
    std::string pred;
    WireEntryKind kind = WireEntryKind::kFacts;
    std::vector<engine::Tuple> tuples;
    /// kHandoff only, parallel to `tuples`: derivation-support counts
    /// (DecodeBatch rejects one above engine::RowState::kMaxSupport) and
    /// base-fact flags travelling with the snapshot rows.
    std::vector<uint32_t> supports;
    std::vector<uint8_t> base_flags;
  };
  std::vector<Entry> entries;

  size_t TotalTuples() const {
    size_t n = 0;
    for (const auto& e : entries) n += e.tuples.size();
    return n;
  }
};

Result<Bytes> EncodeBatch(const WireBatch& batch,
                          const datalog::Catalog& catalog);
Result<WireBatch> DecodeBatch(const Bytes& payload,
                              datalog::Catalog* catalog);

/// Total tuples in an encoded batch, by structural parse only: values are
/// skipped, nothing is interned, no catalog is needed — safe to run on a
/// receive thread concurrently with the apply loop. The size limits match
/// DecodeBatch. Used to validate sender-declared tuple-count hints before
/// they feed batching accounting (the hint rides outside the seal, so it
/// is attacker-controlled even when the payload authenticates).
Result<size_t> CountBatchTuples(const Bytes& payload);

/// Routing fields of an encoded batch, parsed structurally (header only,
/// no interning, no catalog): the apply loop consults them before full
/// decode to decide whether a placement batch applies here, forwards to
/// the current shard owner, or gets rejected.
struct BatchRouting {
  NodeIndex src = 0;
  NodeIndex dst = 0;
  NodeIndex origin = 0;
  uint32_t route_shard = kNoShard;
  uint64_t map_epoch = 0;
};
Result<BatchRouting> PeekBatchRouting(const Bytes& payload);

}  // namespace secureblox::net

#endif  // SECUREBLOX_NET_WIRE_H_
