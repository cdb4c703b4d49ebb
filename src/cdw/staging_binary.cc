#include "cdw/staging_binary.h"

namespace hyperq::cdw {

using common::ByteBuffer;
using common::ByteReader;
using common::Slice;
using common::Status;
using types::TypeId;

size_t BinaryFixedWidth(TypeId id, int32_t declared_length) {
  switch (id) {
    case TypeId::kBoolean:
      return 1;
    case TypeId::kInt8:
      return 1;
    case TypeId::kInt16:
      return 2;
    case TypeId::kInt32:
      return 4;
    case TypeId::kInt64:
      return 8;
    case TypeId::kFloat64:
      return 8;
    case TypeId::kDecimal:
      return 8;
    case TypeId::kDate:
      return 4;
    case TypeId::kTimestamp:
      return 8;
    case TypeId::kChar:
      return static_cast<size_t>(declared_length);
    case TypeId::kVarchar:
      return 0;
  }
  return 0;  // unreachable: TypeId is exhaustive
}

bool IsHqb1(Slice data) {
  if (data.size() < 4) return false;
  uint32_t magic;
  std::memcpy(&magic, data.data(), 4);
  return magic == kHqb1Magic;
}

uint64_t SchemaFingerprint(const types::Schema& schema) {
  // FNV-1a 64: stable, trivially reimplementable by an external reader.
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& field : schema.fields()) {
    for (char c : field.name) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xffu;  // name terminator (names cannot contain 0xff)
    h *= 1099511628211ull;
    mix(static_cast<uint64_t>(field.type.id));
    mix(static_cast<uint64_t>(field.nullable ? 1 : 0));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(field.type.length)));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(field.type.precision)));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(field.type.scale)));
  }
  return h;
}

void BuildBlockHeader(const types::Schema& schema, ByteBuffer* out) {
  out->AppendU32(kHqb1Magic);
  out->AppendU16(kHqb1Version);
  out->AppendU16(0);  // flags
  out->AppendU64(SchemaFingerprint(schema));
  out->AppendU32(static_cast<uint32_t>(schema.num_fields()));
  out->AppendU32(0);  // row count, patched per block
  for (const auto& field : schema.fields()) {
    out->AppendByte(static_cast<uint8_t>(field.type.id));
    out->AppendByte(field.nullable ? 1 : 0);
    out->AppendU16(0);  // reserved
    out->AppendU32(static_cast<uint32_t>(field.type.length));
    out->AppendU16(static_cast<uint16_t>(field.type.precision));
    out->AppendU16(static_cast<uint16_t>(field.type.scale));
  }
}

Status BinaryBlockReader::Parse(ByteReader* reader) {
  HQ_ASSIGN_OR_RETURN(uint32_t magic, reader->ReadU32());
  if (magic != kHqb1Magic) {
    return Status::ConversionError("staging block has bad magic (not HQB1)");
  }
  HQ_ASSIGN_OR_RETURN(uint16_t version, reader->ReadU16());
  if (version != kHqb1Version) {
    return Status::ConversionError("unsupported HQB1 version " + std::to_string(version));
  }
  HQ_RETURN_NOT_OK(reader->ReadU16().status());  // flags (reserved)
  HQ_ASSIGN_OR_RETURN(fingerprint_, reader->ReadU64());
  HQ_ASSIGN_OR_RETURN(uint32_t ncols, reader->ReadU32());
  HQ_ASSIGN_OR_RETURN(row_count_, reader->ReadU32());
  if (ncols == 0) return Status::ConversionError("HQB1 block declares zero columns");
  // 4096 columns is far beyond any layout the legacy dialect can declare;
  // the cap keeps a corrupt count from driving a huge resize below.
  if (ncols > 4096) {
    return Status::ConversionError("HQB1 block declares implausible column count " +
                                   std::to_string(ncols));
  }
  columns_.clear();
  columns_.resize(ncols);
  for (auto& col : columns_) {
    HQ_ASSIGN_OR_RETURN(uint8_t type_id, reader->ReadByte());
    if (type_id > static_cast<uint8_t>(TypeId::kTimestamp)) {
      return Status::ConversionError("HQB1 column descriptor has unknown type id " +
                                     std::to_string(type_id));
    }
    col.type = static_cast<TypeId>(type_id);
    HQ_ASSIGN_OR_RETURN(uint8_t flags, reader->ReadByte());
    col.nullable = (flags & 1u) != 0;
    HQ_RETURN_NOT_OK(reader->ReadU16().status());  // reserved
    HQ_ASSIGN_OR_RETURN(col.length, reader->ReadU32());
    HQ_ASSIGN_OR_RETURN(uint16_t precision, reader->ReadU16());
    HQ_ASSIGN_OR_RETURN(uint16_t scale, reader->ReadU16());
    col.precision = precision;
    col.scale = scale;
    if (col.type == TypeId::kChar && col.length == 0) {
      return Status::ConversionError("HQB1 CHAR column descriptor has zero length");
    }
    if (col.type == TypeId::kDecimal && col.scale > 18) {
      return Status::ConversionError("HQB1 DECIMAL column descriptor has scale " +
                                     std::to_string(col.scale) + " > 18");
    }
    col.fixed_width = BinaryFixedWidth(col.type, static_cast<int32_t>(col.length));
  }
  const size_t bitmap_bytes = (static_cast<size_t>(row_count_) + 7) / 8;
  for (auto& col : columns_) {
    HQ_ASSIGN_OR_RETURN(col.nulls, reader->ReadSlice(bitmap_bytes));
    if (col.fixed_width != 0) {
      HQ_ASSIGN_OR_RETURN(col.fixed,
                          reader->ReadSlice(col.fixed_width * static_cast<size_t>(row_count_)));
      continue;
    }
    HQ_ASSIGN_OR_RETURN(uint32_t data_bytes, reader->ReadU32());
    HQ_ASSIGN_OR_RETURN(col.offsets, reader->ReadSlice(4 * static_cast<size_t>(row_count_)));
    HQ_ASSIGN_OR_RETURN(col.varlen, reader->ReadSlice(data_bytes));
    uint32_t prev = 0;
    for (size_t r = 0; r < row_count_; ++r) {
      uint32_t end;
      std::memcpy(&end, col.offsets.data() + r * 4, 4);
      if (end < prev || end > data_bytes) {
        return Status::ConversionError("HQB1 varlen offsets are not monotone within bounds");
      }
      prev = end;
    }
    if (row_count_ != 0 && prev != data_bytes) {
      return Status::ConversionError("HQB1 varlen section has trailing bytes past last offset");
    }
    if (row_count_ == 0 && data_bytes != 0) {
      return Status::ConversionError("HQB1 varlen section non-empty for zero rows");
    }
  }
  return Status::OK();
}

}  // namespace hyperq::cdw
