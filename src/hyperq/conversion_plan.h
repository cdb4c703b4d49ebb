#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cdw/staging_format.h"
#include "common/bytes.h"
#include "common/status.h"
#include "hyperq/data_converter.h"
#include "legacy/parcel.h"
#include "types/schema.h"

/// \file conversion_plan.h
/// Compiled per-layout conversion plans: the fast path of the DataConverter
/// stage (paper Section 4). Where the reference path materializes every cell
/// as a types::Value and then a per-cell std::string inside a cdw::CsvRecord,
/// a ConversionPlan is built once per layout at DataConverter::Create time as
/// a vector of per-field kernel functions that decode a field straight off
/// the chunk's ByteReader and append its CSV-escaped text (or, for HQB1
/// staging, its typed cell) directly into the output. There is one kernel
/// per legacy TypeId, a template over its staging encoder (CSV text or HQB1
/// cell) instantiated for both. Numeric, decimal and date/timestamp formatting go through
/// fixed-size stack scratch (std::to_chars-style), so steady-state
/// conversion performs O(1) heap allocations per row (the output buffer
/// growth, amortized and pooled).
///
/// There is one chunk loop per wire format (legacy binary, vartext). Each
/// writes through a staging sink — CSV text or an HQB1 block — and always
/// routes fields through a target slot map, which is the identity unless
/// the session's layout drifted (METL-style name matching). Staging
/// encoding and drift remap are therefore plan data, not separate drivers.
///
/// Contract: output bytes and error capture are bit-identical to
/// DataConverter::ConvertReference — same CSV escaping, same NULL vs
/// empty-string encoding, same HQ_ROWNUM column, same RecordError codes and
/// messages. tests/hyperq/conversion_diff_test.cc enforces this over random
/// layouts and adversarial chunks.

namespace hyperq::core {

/// Per-column output sink of the HQB1 columnar encoder (conversion_columnar.h).
struct ColumnSink;
/// Data-quality gate types (quality.h); plans only hold pointers.
class CompiledQuality;
struct QualityFieldChecks;
struct QualityScratch;

class ConversionPlan {
 public:
  struct FieldPlan;

  /// A field kernel consumes the field's wire bytes from `body` (always, even
  /// for NULL fields: binary slots are positional), decodes them, and hands
  /// the cell to its staging encoder: with CSV staging (FieldKernel) the
  /// CSV-escaped text, nothing when null, is appended to `out`. When the
  /// field carries quality checks (`f.checks != nullptr`) the kernel runs
  /// them fused over the decoded value into `q`; gate-off cost is that one
  /// predicted branch. Errors must carry exactly the message the reference
  /// decode path would produce.
  using FieldKernel = common::Status (*)(const FieldPlan&, common::ByteReader* body, bool null,
                                         common::ByteBuffer* out, QualityScratch* q);

  /// The same kernel instantiated with the HQB1 encoder: it appends the
  /// typed staging value (little-endian, already widened to the CDW-mapped
  /// staging type) to the field's ColumnSink. NULL cells append the
  /// zero-filled fixed slot (nothing for varlen); the caller owns the null
  /// bitmap.
  using ColumnKernel = common::Status (*)(const FieldPlan&, common::ByteReader* body, bool null,
                                          ColumnSink* col, QualityScratch* q);

  struct FieldPlan {
    /// The field type's kernel, once per staging family.
    FieldKernel kernel = nullptr;
    ColumnKernel col_kernel = nullptr;
    /// Fused quality check ops for this field (nullptr = none; the clean
    /// path tests exactly this pointer). Owned by DataConverter's
    /// CompiledQuality, attached via AttachQuality.
    const QualityFieldChecks* checks = nullptr;
    /// DECIMAL scale (digits after the point).
    int32_t scale = 0;
    /// CHAR width in bytes.
    int32_t length = 0;
    /// Worst-case CSV text width for fixed-width types (0 = payload-carried).
    uint32_t width_hint = 0;
    /// CSV output delimiter (copied here so kernels stay context-free).
    char csv_delimiter = ',';
  };

  /// Compiles a plan for chunks encoded in `source_layout` (validated by
  /// DataConverter: non-empty; all-VARCHAR when vartext) whose staging rows
  /// keep `target_layout`'s column order. Fields are matched by name,
  /// case-insensitively; when the two layouts are equal the slot map is the
  /// identity. Under drift:
  ///   - a source field absent from the target is decoded and dropped,
  ///   - a target field absent from the source becomes NULL,
  ///   - matched fields are emitted in target order with the source kernel.
  /// When `staging_format` is kBinary, `staging_schema` (the
  /// MakeStagingSchema result for the TARGET layout) must be supplied, and
  /// the drift must be type-stable (DataConverter::CreateRemapped checks);
  /// Execute then emits one HQB1 block per chunk instead of CSV text.
  static ConversionPlan Compile(const types::Schema& source_layout,
                                const types::Schema& target_layout, legacy::DataFormat format,
                                char legacy_delimiter, cdw::CsvOptions csv_options,
                                cdw::StagingFormat staging_format = cdw::StagingFormat::kCsv,
                                const types::Schema* staging_schema = nullptr);

  /// Arms the data-quality gate: distributes `quality`'s per-field check ops
  /// into the FieldPlans and keeps the compiled table for cross-field rules
  /// and quarantine reason tails. `quality` must outlive the plan (the
  /// owning DataConverter guarantees this); nullptr detaches.
  void AttachQuality(const CompiledQuality* quality);
  const CompiledQuality* quality() const { return quality_; }

  /// Converts one chunk into `out` (csv is appended to; metadata fields and
  /// errors are filled in). Per-record data errors are collected and the
  /// partial CSV of the offending record is rolled back; only a vartext
  /// framing error fails the whole chunk (mirroring the reference path).
  /// With a quality gate attached, rows violating a constraint are diverted
  /// record-atomically into `out->qrtn` (always CSV: raw field text in
  /// target order + HQ_ROWNUM + the reason tail) and `out->quality` carries
  /// the chunk's aggregate counters.
  common::Status Execute(const ConversionInput& input, ConvertedChunk* out) const;

  /// Output-size estimate for reserving the CSV buffer: per-field width
  /// hints x row count plus the variable-width bytes carried in the payload.
  size_t EstimateCsvBytes(uint32_t row_count, size_t payload_bytes) const;

  /// Format-aware estimate for the staging output buffer: EstimateCsvBytes
  /// for CSV plans, header + typed-section sizing for HQB1 plans.
  size_t EstimateStagingBytes(uint32_t row_count, size_t payload_bytes) const;

  cdw::StagingFormat staging_format() const { return staging_format_; }

  size_t num_fields() const { return fields_.size(); }

  /// True when the source layout differs from the target (drift).
  bool remapped() const { return remapped_; }
  /// Source fields with no name match in the target (decoded, then dropped).
  size_t dropped_source_fields() const { return dropped_sources_; }
  /// Target slots with no name match in the source (emitted as NULL).
  size_t nulled_target_fields() const { return nulled_slots_.size(); }

 private:
  /// Staging sinks (defined in conversion_plan.cc): the CSV sink appends
  /// escaped text to the chunk's output and rolls back by truncation; the
  /// HQB1 sink wraps a ColumnarChunkBuilder.
  class CsvSink;
  class Hqb1Sink;

  ConversionPlan() = default;

  /// The two chunk loops, one per wire format. Each owns record framing,
  /// the RecordError codes and texts, the quality-gate row protocol,
  /// quarantine diversion and the rows_out / csv_reallocs accounting.
  template <typename Sink>
  common::Status ConvertBinaryChunk(const ConversionInput& input, ConvertedChunk* out,
                                    Sink* sink) const;
  template <typename Sink>
  common::Status ConvertVartextChunk(const ConversionInput& input, ConvertedChunk* out,
                                     Sink* sink) const;

  /// Binds the HQB1 encoding state (header template, target widths).
  /// Defined in conversion_columnar.cc.
  void AttachBinaryStaging(const types::Schema& staging_schema);
  /// Frames one binary record body (indicator bytes, then the fields in
  /// source order) and hands each field to `emit(index, null, body)`;
  /// fails on a decode error or trailing bytes.
  template <typename EmitField>
  common::Status ForEachBinaryField(common::Slice record, EmitField&& emit) const;
  /// Renders one binary record as a staging CSV line in target order
  /// (fields, HQ_ROWNUM, newline). Drifted layouts decode into `scratch`
  /// (per-source-field text, sized on first use) before reordering. Serves
  /// the CSV sink and the HQB1 sink's quarantine re-render.
  common::Status BinaryRecordToCsv(common::Slice record, uint64_t row_number,
                                   common::ByteBuffer* out, QualityScratch* q,
                                   std::vector<common::ByteBuffer>* scratch) const;
  /// Renders split vartext fields (source order, plus the empty NULL slot
  /// at index num_fields()) as a staging CSV line in target order.
  void VartextRecordToCsv(const std::string_view* fields, uint64_t row_number,
                          common::ByteBuffer* out) const;

  std::vector<FieldPlan> fields_;
  legacy::DataFormat format_ = legacy::DataFormat::kBinary;
  char legacy_delimiter_ = '|';
  char csv_delimiter_ = ',';
  size_t indicator_bytes_ = 0;
  /// Sum of fixed width hints + delimiters + HQ_ROWNUM + newline, per row.
  size_t per_row_hint_ = 0;
  bool has_varwidth_ = false;
  /// HQB1 staging state (set by AttachBinaryStaging; empty for CSV plans).
  cdw::StagingFormat staging_format_ = cdw::StagingFormat::kCsv;
  /// Pre-serialized block header for the staging schema (row count 0).
  common::ByteBuffer header_template_;
  /// Fixed staging cell width per staging column incl. HQ_ROWNUM (0=varlen).
  std::vector<uint32_t> target_widths_;
  /// Declared length of each varlen staging column (at least 1; 0 for fixed
  /// columns): its share of a chunk's varlen bytes when the sinks are sized.
  std::vector<uint32_t> varlen_lengths_;
  /// Typed-section bytes per row (fixed widths + varlen offsets + bitmap).
  size_t per_row_binary_hint_ = 0;
  /// Target slot -> source field index; nulled targets map to num_fields(),
  /// the always-empty NULL slot of the loops' per-record field arrays.
  std::vector<uint32_t> out_source_;
  /// Source field -> target slot, kDroppedField when the target lacks it.
  std::vector<uint32_t> slot_of_source_;
  static constexpr uint32_t kDroppedField = UINT32_MAX;
  /// Target slots with no source field.
  std::vector<uint32_t> nulled_slots_;
  bool remapped_ = false;
  size_t dropped_sources_ = 0;
  /// Attached quality gate (nullptr = off). Not owned.
  const CompiledQuality* quality_ = nullptr;
};

}  // namespace hyperq::core
