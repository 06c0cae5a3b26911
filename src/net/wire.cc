#include "net/wire.h"

#include "engine/relation.h"

namespace secureblox::net {

using datalog::Value;
using datalog::ValueKind;

namespace {

/// Skip one serialized value by structure alone — the single source of
/// the per-kind wire layout for consumers that must not intern (the
/// receive-thread tuple counter). DeserializeValue reads the same shapes;
/// a new ValueKind must extend both switches (the compiler flags the one
/// here via the default-free enum switch warning in DeserializeValue).
Status SkipValue(ByteReader* r) {
  SB_ASSIGN_OR_RETURN(uint8_t kind_byte, r->GetU8());
  if (kind_byte > static_cast<uint8_t>(ValueKind::kEntity)) {
    return Status::InvalidArgument("bad value kind tag on wire");
  }
  switch (static_cast<ValueKind>(kind_byte)) {
    case ValueKind::kBool:
      return r->GetU8().status();
    case ValueKind::kInt:
      return r->GetU64().status();
    case ValueKind::kString:
    case ValueKind::kBlob:
      return r->GetLengthPrefixed().status();
    case ValueKind::kEntity:
      SB_RETURN_IF_ERROR(r->GetLengthPrefixed().status());  // type name
      return r->GetLengthPrefixed().status();               // label
  }
  return Status::Internal("unreachable");
}

/// Parse the batch header (magic, version, routing fields, entry count) —
/// shared by DecodeBatch, CountBatchTuples, and PeekBatchRouting so the
/// grammar cannot drift between them.
Status ReadBatchHeader(ByteReader* r, BatchRouting* routing,
                       uint64_t* num_entries) {
  SB_ASSIGN_OR_RETURN(uint8_t m1, r->GetU8());
  SB_ASSIGN_OR_RETURN(uint8_t m2, r->GetU8());
  if (m1 != 'S' || m2 != 'B') {
    return Status::InvalidArgument("bad wire magic");
  }
  SB_ASSIGN_OR_RETURN(uint16_t version, r->GetU16());
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version));
  }
  SB_ASSIGN_OR_RETURN(routing->src, r->GetU32());
  SB_ASSIGN_OR_RETURN(routing->dst, r->GetU32());
  SB_ASSIGN_OR_RETURN(routing->origin, r->GetU32());
  SB_ASSIGN_OR_RETURN(routing->route_shard, r->GetU32());
  SB_ASSIGN_OR_RETURN(routing->map_epoch, r->GetU64());
  SB_ASSIGN_OR_RETURN(*num_entries, r->GetVarint());
  if (*num_entries > 1 << 20) {
    return Status::InvalidArgument("batch too large on wire");
  }
  return Status::OK();
}

}  // namespace

Status SerializeValue(ByteWriter* w, const Value& v,
                      const datalog::Catalog& catalog) {
  w->PutU8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kBool:
      w->PutU8(v.AsBool() ? 1 : 0);
      return Status::OK();
    case ValueKind::kInt:
      w->PutU64(static_cast<uint64_t>(v.AsInt()));
      return Status::OK();
    case ValueKind::kString:
    case ValueKind::kBlob:
      w->PutLengthPrefixedString(v.BlobRef());
      return Status::OK();
    case ValueKind::kEntity: {
      SB_ASSIGN_OR_RETURN(std::string label, catalog.EntityLabel(v));
      w->PutLengthPrefixedString(catalog.decl(v.entity_type()).name);
      w->PutLengthPrefixedString(label);
      return Status::OK();
    }
  }
  return Status::Internal("bad value kind");
}

Result<Value> DeserializeValue(ByteReader* r, datalog::Catalog* catalog) {
  SB_ASSIGN_OR_RETURN(uint8_t kind_byte, r->GetU8());
  if (kind_byte > static_cast<uint8_t>(ValueKind::kEntity)) {
    return Status::InvalidArgument("bad value kind tag on wire");
  }
  switch (static_cast<ValueKind>(kind_byte)) {
    case ValueKind::kBool: {
      SB_ASSIGN_OR_RETURN(uint8_t b, r->GetU8());
      return Value::Bool(b != 0);
    }
    case ValueKind::kInt: {
      SB_ASSIGN_OR_RETURN(uint64_t v, r->GetU64());
      return Value::Int(static_cast<int64_t>(v));
    }
    case ValueKind::kString: {
      SB_ASSIGN_OR_RETURN(std::string s, r->GetLengthPrefixedString());
      return Value::Str(std::move(s));
    }
    case ValueKind::kBlob: {
      SB_ASSIGN_OR_RETURN(Bytes b, r->GetLengthPrefixed());
      return Value::MakeBlob(std::move(b));
    }
    case ValueKind::kEntity: {
      SB_ASSIGN_OR_RETURN(std::string type_name, r->GetLengthPrefixedString());
      SB_ASSIGN_OR_RETURN(std::string label, r->GetLengthPrefixedString());
      SB_ASSIGN_OR_RETURN(datalog::PredId type, catalog->Lookup(type_name));
      if (!catalog->decl(type).is_entity_type) {
        return Status::InvalidArgument("wire entity type '" + type_name +
                                       "' is not an entity type here");
      }
      return catalog->InternEntity(type, label);
    }
  }
  return Status::Internal("unreachable");
}

Status SerializeTuple(ByteWriter* w, const engine::Tuple& t,
                      const datalog::Catalog& catalog) {
  w->PutVarint(t.size());
  for (const Value& v : t) {
    SB_RETURN_IF_ERROR(SerializeValue(w, v, catalog));
  }
  return Status::OK();
}

Result<engine::Tuple> DeserializeTuple(ByteReader* r,
                                       datalog::Catalog* catalog) {
  SB_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n > 1 << 20) return Status::InvalidArgument("tuple too large on wire");
  engine::Tuple t;
  t.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SB_ASSIGN_OR_RETURN(Value v, DeserializeValue(r, catalog));
    t.push_back(std::move(v));
  }
  return t;
}

Result<Bytes> EncodeBatch(const WireBatch& batch,
                          const datalog::Catalog& catalog) {
  ByteWriter w;
  w.PutU8('S');
  w.PutU8('B');
  w.PutU16(kWireVersion);
  w.PutU32(batch.src);
  w.PutU32(batch.dst);
  w.PutU32(batch.origin);
  w.PutU32(batch.route_shard);
  w.PutU64(batch.map_epoch);
  w.PutVarint(batch.entries.size());
  for (const auto& entry : batch.entries) {
    const bool handoff = entry.kind == WireEntryKind::kHandoff;
    if (handoff && (entry.supports.size() != entry.tuples.size() ||
                    entry.base_flags.size() != entry.tuples.size())) {
      return Status::InvalidArgument(
          "handoff entry needs one support/base flag per tuple");
    }
    w.PutLengthPrefixedString(entry.pred);
    w.PutU8(static_cast<uint8_t>(entry.kind));
    w.PutVarint(entry.tuples.size());
    for (size_t i = 0; i < entry.tuples.size(); ++i) {
      SB_RETURN_IF_ERROR(SerializeTuple(&w, entry.tuples[i], catalog));
      if (handoff) {
        w.PutVarint(entry.supports[i]);
        w.PutU8(entry.base_flags[i] ? 1 : 0);
      }
    }
  }
  return w.Take();
}

Result<WireBatch> DecodeBatch(const Bytes& payload,
                              datalog::Catalog* catalog) {
  ByteReader r(payload);
  WireBatch batch;
  BatchRouting routing;
  uint64_t num_entries = 0;
  SB_RETURN_IF_ERROR(ReadBatchHeader(&r, &routing, &num_entries));
  batch.src = routing.src;
  batch.dst = routing.dst;
  batch.origin = routing.origin;
  batch.route_shard = routing.route_shard;
  batch.map_epoch = routing.map_epoch;
  for (uint64_t i = 0; i < num_entries; ++i) {
    WireBatch::Entry entry;
    SB_ASSIGN_OR_RETURN(entry.pred, r.GetLengthPrefixedString());
    SB_ASSIGN_OR_RETURN(uint8_t kind_byte, r.GetU8());
    if (kind_byte > static_cast<uint8_t>(WireEntryKind::kHandoff)) {
      return Status::InvalidArgument("bad entry kind tag on wire");
    }
    entry.kind = static_cast<WireEntryKind>(kind_byte);
    const bool handoff = entry.kind == WireEntryKind::kHandoff;
    SB_ASSIGN_OR_RETURN(uint64_t num_tuples, r.GetVarint());
    if (num_tuples > 1 << 20) {
      return Status::InvalidArgument("entry too large on wire");
    }
    for (uint64_t j = 0; j < num_tuples; ++j) {
      SB_ASSIGN_OR_RETURN(engine::Tuple t, DeserializeTuple(&r, catalog));
      entry.tuples.push_back(std::move(t));
      if (handoff) {
        SB_ASSIGN_OR_RETURN(uint64_t support, r.GetVarint());
        // The receiving row keeps 31 bits of support beside its base flag.
        if (support > engine::RowState::kMaxSupport) {
          return Status::InvalidArgument("handoff support count too large");
        }
        SB_ASSIGN_OR_RETURN(uint8_t base, r.GetU8());
        entry.supports.push_back(static_cast<uint32_t>(support));
        entry.base_flags.push_back(base != 0 ? 1 : 0);
      }
    }
    batch.entries.push_back(std::move(entry));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after wire batch");
  }
  return batch;
}

Result<size_t> CountBatchTuples(const Bytes& payload) {
  ByteReader r(payload);
  BatchRouting routing;
  uint64_t num_entries = 0;
  SB_RETURN_IF_ERROR(ReadBatchHeader(&r, &routing, &num_entries));
  size_t total = 0;
  for (uint64_t i = 0; i < num_entries; ++i) {
    SB_RETURN_IF_ERROR(r.GetLengthPrefixed().status());  // pred name
    SB_ASSIGN_OR_RETURN(uint8_t kind_byte, r.GetU8());
    if (kind_byte > static_cast<uint8_t>(WireEntryKind::kHandoff)) {
      return Status::InvalidArgument("bad entry kind tag on wire");
    }
    const bool handoff =
        static_cast<WireEntryKind>(kind_byte) == WireEntryKind::kHandoff;
    SB_ASSIGN_OR_RETURN(uint64_t num_tuples, r.GetVarint());
    if (num_tuples > 1 << 20) {
      return Status::InvalidArgument("entry too large on wire");
    }
    for (uint64_t j = 0; j < num_tuples; ++j) {
      SB_ASSIGN_OR_RETURN(uint64_t arity, r.GetVarint());
      if (arity > 1 << 20) {
        return Status::InvalidArgument("tuple too large on wire");
      }
      for (uint64_t k = 0; k < arity; ++k) {
        SB_RETURN_IF_ERROR(SkipValue(&r));
      }
      if (handoff) {
        SB_RETURN_IF_ERROR(r.GetVarint().status());  // support
        SB_RETURN_IF_ERROR(r.GetU8().status());      // base flag
      }
    }
    total += num_tuples;
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after wire batch");
  }
  return total;
}

Result<BatchRouting> PeekBatchRouting(const Bytes& payload) {
  ByteReader r(payload);
  BatchRouting routing;
  uint64_t num_entries = 0;
  SB_RETURN_IF_ERROR(ReadBatchHeader(&r, &routing, &num_entries));
  return routing;
}

}  // namespace secureblox::net
