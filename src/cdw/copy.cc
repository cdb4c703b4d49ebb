#include "cdw/copy.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "cdw/staging_binary.h"
#include "cdw/statement_workers.h"
#include "cloudstore/compression.h"

namespace hyperq::cdw {

using common::ByteReader;
using common::Result;
using common::Slice;
using common::Status;
using types::Row;
using types::Value;

namespace {

/// Format-tag suffixes for COPY-ledger idempotence keys (see copy.h).
constexpr std::string_view kLedgerTagBinary = "#bin";
constexpr std::string_view kLedgerTagCsv = "#csv";

/// Validates one parsed HQB1 block against the target table layout and
/// materializes its cells into `staged` (one vector per column). The
/// fingerprint is a fast negotiation handle, but it is carried IN the
/// header, so the descriptors are re-checked field by field — a corrupt
/// block cannot buy its way in with a copied fingerprint.
Status AppendBinaryBlock(const BinaryBlockReader& block, const Table& table,
                         const std::string& key, std::vector<std::vector<Value>>* staged) {
  const types::Schema& schema = table.schema();
  if (block.fingerprint() != SchemaFingerprint(schema)) {
    return Status::ConversionError("COPY: HQB1 block in " + key +
                                   " has a layout fingerprint that does not match table " +
                                   table.name());
  }
  if (block.columns().size() != schema.num_fields()) {
    return Status::ConversionError(
        "COPY: HQB1 block in " + key + " has " + std::to_string(block.columns().size()) +
        " columns, table " + table.name() + " has " + std::to_string(schema.num_fields()));
  }
  const size_t rows = block.row_count();
  for (size_t c = 0; c < block.columns().size(); ++c) {
    const BinaryColumnView& col = block.columns()[c];
    const types::Field& field = schema.field(c);
    if (col.type != field.type.id ||
        (field.type.id == types::TypeId::kChar &&
         col.length != static_cast<uint32_t>(field.type.length)) ||
        (field.type.id == types::TypeId::kDecimal &&
         col.scale != static_cast<uint32_t>(field.type.scale))) {
      return Status::ConversionError("COPY: HQB1 column descriptor in " + key +
                                     " does not match table column " + field.name);
    }
    std::vector<Value>& out = (*staged)[c];
    // Grow geometrically across blocks: an exact-size reserve per block
    // would reallocate (and copy every staged Value) once per block per
    // column — quadratic in the number of blocks under a prefix.
    if (out.capacity() < out.size() + rows) {
      out.reserve(std::max(out.size() + rows, out.capacity() * 2));
    }
    for (size_t r = 0; r < rows; ++r) {
      if (col.IsNull(r)) {
        if (!field.nullable) {
          return Status::ConversionError("COPY: NULL in NOT NULL column " + field.name);
        }
        out.push_back(Value::Null());
        continue;
      }
      const uint8_t* cell = col.fixed.data() + r * col.fixed_width;
      switch (field.type.id) {
        case types::TypeId::kBoolean:
          out.push_back(Value::Boolean(*cell != 0));
          break;
        case types::TypeId::kInt8: {
          int8_t v;
          std::memcpy(&v, cell, 1);
          out.push_back(Value::Int(v));
          break;
        }
        case types::TypeId::kInt16: {
          int16_t v;
          std::memcpy(&v, cell, 2);
          out.push_back(Value::Int(v));
          break;
        }
        case types::TypeId::kInt32: {
          int32_t v;
          std::memcpy(&v, cell, 4);
          out.push_back(Value::Int(v));
          break;
        }
        case types::TypeId::kInt64: {
          int64_t v;
          std::memcpy(&v, cell, 8);
          out.push_back(Value::Int(v));
          break;
        }
        case types::TypeId::kFloat64: {
          double v;
          std::memcpy(&v, cell, 8);
          out.push_back(Value::Float(v));
          break;
        }
        case types::TypeId::kDecimal: {
          int64_t unscaled;
          std::memcpy(&unscaled, cell, 8);
          out.push_back(Value::Dec(types::Decimal(unscaled, field.type.scale)));
          break;
        }
        case types::TypeId::kDate: {
          int32_t days;
          std::memcpy(&days, cell, 4);
          out.push_back(Value::Date(days));
          break;
        }
        case types::TypeId::kTimestamp: {
          int64_t micros;
          std::memcpy(&micros, cell, 8);
          out.push_back(Value::Timestamp(micros));
          break;
        }
        case types::TypeId::kChar:
          // Wire cells are exactly the declared width (the converter pads),
          // which is the canonical CHAR(n) value representation already.
          out.push_back(Value::String(
              std::string(reinterpret_cast<const char*>(cell), col.fixed_width)));
          break;
        case types::TypeId::kVarchar: {
          size_t begin = 0;
          size_t len = 0;
          col.VarlenCell(r, &begin, &len);
          std::string text(reinterpret_cast<const char*>(col.varlen.data()) + begin, len);
          if (field.type.length <= 0 || len <= static_cast<size_t>(field.type.length)) {
            out.push_back(Value::String(std::move(text)));
            break;
          }
          // Oversize cell: delegate to CastValue so overflow trimming and
          // the error text are identical to the CSV path's FitString.
          HQ_ASSIGN_OR_RETURN(Value v,
                              types::CastValue(Value::String(std::move(text)), field.type));
          out.push_back(std::move(v));
          break;
        }
      }
    }
  }
  return Status::OK();
}

/// One staged object a COPY reads: filled in by one part, in any order.
struct ObjectPart {
  std::string key;
  std::shared_ptr<const std::vector<uint8_t>> blob;
  Status status{};
  bool binary = false;
  uint64_t rows = 0;
  uint64_t bytes = 0;  ///< decompressed
  std::vector<std::vector<Value>> columns{};
};

/// Decompresses, sniffs and decodes one staged object into its own column
/// segment. Every check is the same whichever part reads it, so the error
/// an object raises does not depend on the worker count.
Status ReadObject(const Table& table, const CopyOptions& options, ObjectPart* part) {
  const std::string& key = part->key;
  const size_t ncols = table.schema().num_fields();
  part->columns.resize(ncols);
  Slice raw(*part->blob);
  common::ByteBuffer decompressed;
  if (cloud::IsCompressed(raw)) {
    HQ_ASSIGN_OR_RETURN(decompressed, cloud::Decompress(raw));
    raw = decompressed.AsSlice();
  }
  part->bytes = raw.size();
  part->binary = options.format == CopyFormat::kBinary ||
                 (options.format == CopyFormat::kAuto && IsHqb1(raw));
  if (part->binary) {
    ByteReader reader(raw);
    BinaryBlockReader block;
    while (!reader.AtEnd()) {
      Status parsed = block.Parse(&reader);
      if (!parsed.ok()) return parsed.WithContext("COPY: object " + key);
      HQ_RETURN_NOT_OK(AppendBinaryBlock(block, table, key, &part->columns));
      part->rows += block.row_count();
    }
    return Status::OK();
  }
  // Stream one record view at a time instead of materializing the whole
  // staging file as std::vector<CsvRecord>; field text is borrowed from the
  // object bytes (or the reader's scratch) until the typed Value copy.
  CsvStreamReader reader(raw, options.csv);
  while (true) {
    HQ_ASSIGN_OR_RETURN(bool more, reader.Next());
    if (!more) break;
    if (reader.num_fields() != ncols) {
      return Status::ConversionError("COPY: record in " + key + " has " +
                                     std::to_string(reader.num_fields()) + " fields, table " +
                                     table.name() + " has " + std::to_string(ncols));
    }
    for (size_t c = 0; c < ncols; ++c) {
      const types::Field& field = table.schema().field(c);
      CsvFieldView cell = reader.field(c);
      if (cell.null) {
        if (!field.nullable) {
          return Status::ConversionError("COPY: NULL in NOT NULL column " + field.name);
        }
        part->columns[c].push_back(Value::Null());
        continue;
      }
      // A VARCHAR cell that fits is the cell's text, as CastValue would make
      // it; anything else goes through CastValue.
      if (field.type.id == types::TypeId::kVarchar &&
          (field.type.length <= 0 || cell.text.size() <= static_cast<size_t>(field.type.length))) {
        part->columns[c].push_back(Value::String(std::string(cell.text)));
        continue;
      }
      HQ_ASSIGN_OR_RETURN(Value v,
                          types::CastValue(Value::String(std::string(cell.text)), field.type));
      part->columns[c].push_back(std::move(v));
    }
    ++part->rows;
  }
  return Status::OK();
}

}  // namespace

Result<uint64_t> CopyFromStore(Table* table, const cloud::ObjectStore& store,
                               const std::string& prefix, const CopyOptions& options,
                               std::map<std::string, uint64_t>* ledger, CopyStats* stats,
                               StatementWorkers* workers) {
  // The objects are fetched in key order on the calling thread, up to the
  // first fetch that fails; only the decoding is split into parts.
  std::vector<ObjectPart> parts;
  Status fetch_failed;
  uint64_t already_ingested = 0;
  size_t fetched_bytes = 0;
  for (const auto& key : store.List(prefix)) {
    if (ledger != nullptr) {
      // An object key only ever decodes as one format (its bytes don't
      // change across retries), so looking up both tags preserves the
      // skip-before-Get fast path.
      auto it = ledger->find(key + std::string(kLedgerTagBinary));
      if (it == ledger->end()) it = ledger->find(key + std::string(kLedgerTagCsv));
      if (it != ledger->end()) {
        already_ingested += it->second;
        continue;
      }
    }
    auto blob = store.Get(key);
    if (!blob.ok()) {
      fetch_failed = blob.status();
      break;
    }
    fetched_bytes += (*blob)->size();
    parts.push_back(ObjectPart{.key = key, .blob = std::move(blob).ValueOrDie()});
  }
  // The reported error is the one of the lowest object that fails, as if
  // the objects were read one after another, so an object above it need
  // not be read at all.
  std::atomic<size_t> first_failed{parts.size()};
  auto read = [&](size_t i) {
    if (i > first_failed.load(std::memory_order_relaxed)) return;
    ObjectPart& part = parts[i];
    part.status = ReadObject(*table, options, &part);
    part.blob.reset();
    if (!part.status.ok()) LowerTo(&first_failed, i);
  };
  if (workers != nullptr && fetched_bytes >= kMinParallelCopyBytes) {
    workers->ForEach(parts.size(), read);
  } else {
    for (size_t i = 0; i < parts.size(); ++i) read(i);
  }
  if (first_failed < parts.size()) return parts[first_failed].status;
  HQ_RETURN_NOT_OK(fetch_failed);

  std::vector<std::pair<std::string, uint64_t>> ingested;  // tagged key -> rows, this COPY
  std::vector<std::vector<std::vector<Value>>> segments;
  uint64_t staged_rows = 0;
  CopyStats local;
  for (ObjectPart& part : parts) {
    staged_rows += part.rows;
    ingested.emplace_back(part.key + std::string(part.binary ? kLedgerTagBinary : kLedgerTagCsv),
                          part.rows);
    if (part.binary) {
      ++local.binary_files;
      local.binary_rows += part.rows;
      local.binary_bytes += part.bytes;
    } else {
      ++local.csv_files;
      local.csv_rows += part.rows;
      local.csv_bytes += part.bytes;
    }
    segments.push_back(std::move(part.columns));
  }
  TableWrite write;  // one append of every object's rows, in key order
  write.appended = ConcatColumns(std::move(segments), table->num_columns());
  HQ_RETURN_NOT_OK(table->Commit(std::move(write)));
  // The append committed; only now do the new keys enter the ledger.
  if (ledger != nullptr) {
    for (auto& [key, rows] : ingested) (*ledger)[key] = rows;
  }
  if (stats != nullptr) {
    stats->binary_files += local.binary_files;
    stats->binary_rows += local.binary_rows;
    stats->binary_bytes += local.binary_bytes;
    stats->csv_files += local.csv_files;
    stats->csv_rows += local.csv_rows;
    stats->csv_bytes += local.csv_bytes;
  }
  return staged_rows + already_ingested;
}

}  // namespace hyperq::cdw
