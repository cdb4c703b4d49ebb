#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cdw/staging_format.h"
#include "common/bytes.h"
#include "common/result.h"
#include "hyperq/quality.h"
#include "legacy/parcel.h"
#include "legacy/row_format.h"
#include "types/schema.h"

namespace hyperq::common {
class BufferPool;
}  // namespace hyperq::common

/// \file data_converter.h
/// The DataConverter stage (paper Section 4): converts chunks from the
/// legacy wire encoding (binary indicdata or vartext) into CDW staging rows
/// — CSV text, or typed HQB1 blocks on the binary direct pipe — "detecting
/// null values, handling empty strings, and escaping special characters" on
/// the fly. Conversion is lazy with respect to the client: the PXC
/// acknowledges the chunk first and conversion runs in the background on a
/// worker pool. Create and CreateRemapped build the same compiled
/// ConversionPlan; a drifted layout only changes the plan's slot map.
///
/// Each converted record gains a trailing HQ_ROWNUM column carrying its
/// global input row number — the handle the adaptive error handler uses to
/// re-apply sub-ranges of the staging table (Section 7).

namespace hyperq::core {

/// Name of the synthetic row-number column appended to staging tables.
inline constexpr const char* kRowNumColumn = "HQ_ROWNUM";

/// Builds the CDW staging-table schema for a load layout: mapped layout
/// columns plus HQ_ROWNUM BIGINT.
common::Result<types::Schema> MakeStagingSchema(const types::Schema& layout);

/// A record that failed conversion (a *data error* in the paper's taxonomy;
/// it is recorded in the ET error table and excluded from the load).
struct RecordError {
  uint64_t row_number = 0;
  uint32_t code = 0;
  std::string field;
  std::string message;
};

struct ConversionInput {
  /// Dense arrival index used for ordered hand-off to the FileWriters.
  uint64_t order_index = 0;
  /// Global row number of the chunk's first record (1-based).
  uint64_t first_row_number = 0;
  legacy::DataChunkBody chunk;
};

struct ConvertedChunk {
  uint64_t order_index = 0;
  uint64_t first_row_number = 0;
  uint32_t rows_in = 0;
  uint32_t rows_out = 0;
  common::ByteBuffer csv;
  std::vector<RecordError> errors;
  /// Times the CSV buffer had to grow beyond its initial reservation
  /// (exported as an obs counter; should stay 0 when the plan's size
  /// estimate is right).
  uint64_t csv_reallocs = 0;
  /// Quality-gate quarantine stream: one CSV line per violating row (raw
  /// field text in target order, HQ_ROWNUM, then the reason tail
  /// constraint-id,kind,column,bound). Always CSV, even for HQB1 staging —
  /// quarantine rows are all-varchar diagnostics, not typed reload data.
  /// Empty when the gate is off or the chunk is clean.
  common::ByteBuffer qrtn;
  /// Per-chunk quality counters (zeroed when the gate is off).
  ChunkQuality quality;
};

/// Compiled fast path for Convert (see conversion_plan.h).
class ConversionPlan;

class DataConverter {
 public:
  /// Fails fast on invalid combinations (vartext requires an all-VARCHAR
  /// layout, the legacy restriction). `staging_format` selects the staging
  /// bytes Convert emits: CSV text (the compatibility default) or HQB1
  /// typed columnar blocks (the direct-pipe path, staging_binary.h).
  /// `quality` (optional) arms the data-quality gate: the table's constraint
  /// spec is compiled against `layout` here — off the hot path — and fused
  /// into the conversion kernels. Unknown columns are an error (the spec is
  /// part of the job contract).
  static common::Result<DataConverter> Create(
      types::Schema layout, legacy::DataFormat format, char delimiter,
      cdw::CsvOptions csv_options = {},
      cdw::StagingFormat staging_format = cdw::StagingFormat::kCsv,
      const TableQualitySpec* quality = nullptr);

  /// Drift-tolerant converter: chunks are decoded in `source_layout` but the
  /// CSV columns are emitted in `target_layout` order, matched by name
  /// (unmatched source fields dropped, unmatched target fields NULLed). Used
  /// by streaming sessions after a mid-stream layout change; the staging
  /// table keeps the target layout's staging schema. layout() returns the
  /// SOURCE layout (what the wire carries).
  ///
  /// With binary staging the drift must be TYPE-STABLE: every name-matched
  /// field must keep its CDW-mapped staging type, because the staging file's
  /// block headers carry the target layout's typed columns and a converter
  /// cannot change a file's cell encoding mid-stream. Type-changing drift
  /// returns Invalid — callers fall back to CSV staging for that session
  /// (the documented negotiation rule).
  /// `quality` compiles against the SOURCE layout (checks run on decoded
  /// wire fields); constraints whose columns left the wire layout go dormant
  /// for the drift window instead of erroring.
  static common::Result<DataConverter> CreateRemapped(
      types::Schema source_layout, const types::Schema& target_layout,
      legacy::DataFormat format, char delimiter, cdw::CsvOptions csv_options = {},
      cdw::StagingFormat staging_format = cdw::StagingFormat::kCsv,
      const TableQualitySpec* quality = nullptr);

  DataConverter(DataConverter&&) noexcept;
  DataConverter& operator=(DataConverter&&) noexcept;
  ~DataConverter();

  /// Converts one chunk via the compiled plan. Per-record data errors
  /// (field-count mismatch, undecodable binary record) are collected, the
  /// offending record is skipped, and conversion continues (tuple-at-a-time
  /// error semantics of the legacy EDW, Section 7). When `pool` is non-null
  /// the CSV output buffer is acquired from it (return it via
  /// BufferPool::Release once the bytes are written out).
  common::Result<ConvertedChunk> Convert(const ConversionInput& input,
                                         common::BufferPool* pool = nullptr) const;

  /// The original interpretive path (Value materialization + CsvRecord).
  /// Kept as the reference implementation: the differential test requires
  /// Convert to produce byte-identical CSV and identical error capture, and
  /// bench_ablation_convert uses it as the ablation baseline.
  common::Result<ConvertedChunk> ConvertReference(const ConversionInput& input) const;

  const types::Schema& layout() const { return layout_; }
  const ConversionPlan& plan() const { return *plan_; }
  /// The compiled quality gate, nullptr when off.
  const CompiledQuality* quality() const { return quality_.get(); }

 private:
  /// Shared by Create and CreateRemapped: validates the wire layout, compiles
  /// the quality spec against it and builds the plan for `target_layout`.
  static common::Result<DataConverter> Make(types::Schema source_layout,
                                            const types::Schema& target_layout,
                                            legacy::DataFormat format, char delimiter,
                                            cdw::CsvOptions csv_options,
                                            cdw::StagingFormat staging_format,
                                            const TableQualitySpec* quality,
                                            bool allow_missing_columns);
  DataConverter(types::Schema source_layout, const types::Schema& target_layout,
                legacy::DataFormat format, char delimiter, cdw::CsvOptions csv_options,
                cdw::StagingFormat staging_format, const types::Schema* staging_schema,
                std::unique_ptr<CompiledQuality> quality);

  types::Schema layout_;
  legacy::DataFormat format_;
  char delimiter_;
  cdw::CsvOptions csv_options_;
  std::unique_ptr<ConversionPlan> plan_;
  /// Owns the compiled constraint table the plan's FieldPlans point into.
  std::unique_ptr<CompiledQuality> quality_;
};

}  // namespace hyperq::core
