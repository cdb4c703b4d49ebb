#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "cdw/staging_format.h"
#include "cdw/table.h"
#include "cloudstore/object_store.h"
#include "common/result.h"

/// \file copy.h
/// The in-the-cloud COPY operation (paper Section 3: "Hyper-Q initiates an
/// in-the-cloud COPY operation to move data to a staging table in the CDW").
/// Reads every staged object under a prefix, auto-decompresses, decodes the
/// staging format and appends typed rows to the target table. Two decode
/// paths share identical set-oriented semantics:
///   - CSV: streamed per-record text parse + CastValue per cell
///   - HQB1 (FORMAT BINARY, staging_binary.h): header validated against the
///     table layout, then typed values appended straight into column storage
///     with no per-cell text parsing — the direct pipe.

namespace hyperq::cdw {

class StatementWorkers;

/// The format COPY expects for the objects under the prefix.
///   kAuto   - per-object sniff (HQB1 magic after decompression, else CSV);
///             what jobs use, so a prefix mixing formats (e.g. a drift
///             fallback to CSV mid-stream) still loads correctly.
///   kCsv    - every object is parsed as CSV (HQB1 bytes would be rejected
///             cell-by-cell like any malformed text).
///   kBinary - FORMAT BINARY: every object must be HQB1; validation failures
///             (bad magic/version/layout) abort the COPY.
enum class CopyFormat : uint8_t {
  kAuto = 0,
  kCsv = 1,
  kBinary = 2,
};

struct CopyOptions {
  CsvOptions csv;
  CopyFormat format = CopyFormat::kAuto;
};

/// Per-COPY ingest accounting (only objects decoded by THIS call; ledger
/// skips are not re-counted). Bytes are decompressed staging bytes.
struct CopyStats {
  uint64_t binary_files = 0;
  uint64_t binary_rows = 0;
  uint64_t binary_bytes = 0;
  uint64_t csv_files = 0;
  uint64_t csv_rows = 0;
  uint64_t csv_bytes = 0;
};

/// Returns the number of rows loaded. Set-oriented: any malformed record or
/// type mismatch aborts the COPY with the table unchanged.
///
/// `ledger` (optional) makes a retried COPY idempotent: it maps staged
/// object key -> rows previously ingested from that key into this table.
/// Keys already in the ledger are skipped (their recorded rows count toward
/// the returned total); newly ingested keys are added after the append
/// commits. So when a COPY's ack is lost and the whole statement is retried,
/// rows cannot be double-ingested, and the return value is the cumulative
/// row count for the prefix either way.
///
/// Ledger keys are format-tagged with a SUFFIX — `<object key>#bin` /
/// `<object key>#csv` — recording the format the object's bytes decoded as.
/// The suffix keeps prefix-scoped operations (ForgetCopiesWithPrefix,
/// lexicographic FIFO eviction over zero-padded batch prefixes) working
/// unchanged while letting retries of mixed-format uploads dedup correctly.
///
/// The objects are fetched in key order before any is decoded. With
/// `workers`, objects of at least kMinParallelCopyBytes in all are decoded
/// in parallel, each into its own column segment, and the segments are
/// appended in key order. The rows, the ledger, the stats and the reported
/// error (that of the lowest failing object, and within it its first
/// failing record) are those of reading the objects one after another; a
/// COPY that fails to decode an object has still fetched every object.
common::Result<uint64_t> CopyFromStore(Table* table, const cloud::ObjectStore& store,
                                       const std::string& prefix,
                                       const CopyOptions& options = {},
                                       std::map<std::string, uint64_t>* ledger = nullptr,
                                       CopyStats* stats = nullptr,
                                       StatementWorkers* workers = nullptr);

}  // namespace hyperq::cdw
