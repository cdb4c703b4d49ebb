#include "hyperq/data_converter.h"

#include <optional>
#include <vector>

#include "common/buffer_pool.h"
#include "hyperq/conversion_plan.h"
#include "legacy/errors.h"
#include "types/type_mapping.h"

namespace hyperq::core {

using common::ByteReader;
using common::Result;
using common::Slice;
using common::Status;
using types::Row;
using types::Schema;
using types::TypeId;
using types::Value;

Result<Schema> MakeStagingSchema(const Schema& layout) {
  HQ_ASSIGN_OR_RETURN(Schema mapped, types::MapLegacySchemaToCdw(layout));
  if (mapped.FieldIndex(kRowNumColumn) >= 0) {
    return Status::Invalid(std::string("layout already contains reserved column ") +
                           kRowNumColumn);
  }
  mapped.AddField(types::Field(kRowNumColumn, types::TypeDesc::Int64(), /*nullable=*/false));
  return mapped;
}

Result<DataConverter> DataConverter::Create(Schema layout, legacy::DataFormat format,
                                            char delimiter, cdw::CsvOptions csv_options,
                                            cdw::StagingFormat staging_format,
                                            const TableQualitySpec* quality) {
  return Make(layout, layout, format, delimiter, csv_options, staging_format, quality,
              /*allow_missing_columns=*/false);
}

Result<DataConverter> DataConverter::CreateRemapped(Schema source_layout,
                                                    const Schema& target_layout,
                                                    legacy::DataFormat format, char delimiter,
                                                    cdw::CsvOptions csv_options,
                                                    cdw::StagingFormat staging_format,
                                                    const TableQualitySpec* quality) {
  if (target_layout.num_fields() == 0) return Status::Invalid("empty target layout");
  if (staging_format == cdw::StagingFormat::kBinary) {
    // Binary staging requires type-stable, one-to-one drift: a name-matched
    // field whose CDW-mapped staging type changed cannot be encoded into the
    // target layout's typed block columns, and the HQB1 sink stages each
    // source field into at most one column (the negotiation rule: such
    // drift requires csv staging).
    std::vector<bool> matched(source_layout.num_fields(), false);
    for (const auto& tf : target_layout.fields()) {
      int src = source_layout.FieldIndex(tf.name);
      if (src < 0) continue;
      if (matched[static_cast<size_t>(src)]) {
        return Status::Invalid("schema drift matches field " + tf.name +
                               " to more than one target column; requires csv staging");
      }
      matched[static_cast<size_t>(src)] = true;
      HQ_ASSIGN_OR_RETURN(types::TypeDesc src_staging,
                          types::MapLegacyTypeToCdw(source_layout.field(src).type));
      HQ_ASSIGN_OR_RETURN(types::TypeDesc tgt_staging, types::MapLegacyTypeToCdw(tf.type));
      if (!(src_staging == tgt_staging)) {
        return Status::Invalid("schema drift changed the staging type of field " + tf.name +
                               " (" + tgt_staging.ToString() + " -> " + src_staging.ToString() +
                               "); type-changing drift requires csv staging");
      }
    }
  }
  // Constraints naming columns the drifted wire no longer carries go dormant
  // for the window instead of failing the session.
  return Make(std::move(source_layout), target_layout, format, delimiter, csv_options,
              staging_format, quality, /*allow_missing_columns=*/true);
}

Result<DataConverter> DataConverter::Make(Schema source_layout, const Schema& target_layout,
                                          legacy::DataFormat format, char delimiter,
                                          cdw::CsvOptions csv_options,
                                          cdw::StagingFormat staging_format,
                                          const TableQualitySpec* quality,
                                          bool allow_missing_columns) {
  if (source_layout.num_fields() == 0) return Status::Invalid("empty load layout");
  if (format == legacy::DataFormat::kVartext) {
    for (const auto& f : source_layout.fields()) {
      if (f.type.id != TypeId::kVarchar) {
        return Status::Invalid("vartext layouts require all fields to be VARCHAR (legacy "
                               "restriction); field " +
                               f.name + " is " + f.type.ToString());
      }
    }
  }
  // Quality checks run on the decoded wire record, so the spec compiles
  // against the SOURCE layout.
  std::unique_ptr<CompiledQuality> compiled;
  if (quality != nullptr) {
    HQ_ASSIGN_OR_RETURN(CompiledQuality cq,
                        CompiledQuality::Compile(*quality, source_layout, allow_missing_columns,
                                                 csv_options.delimiter));
    compiled = std::make_unique<CompiledQuality>(std::move(cq));
  }
  std::optional<Schema> staging;
  if (staging_format == cdw::StagingFormat::kBinary) {
    HQ_ASSIGN_OR_RETURN(staging, MakeStagingSchema(target_layout));
  }
  return DataConverter(std::move(source_layout), target_layout, format, delimiter, csv_options,
                       staging_format, staging.has_value() ? &*staging : nullptr,
                       std::move(compiled));
}

DataConverter::DataConverter(Schema source_layout, const Schema& target_layout,
                             legacy::DataFormat format, char delimiter,
                             cdw::CsvOptions csv_options, cdw::StagingFormat staging_format,
                             const Schema* staging_schema,
                             std::unique_ptr<CompiledQuality> quality)
    : layout_(std::move(source_layout)),
      format_(format),
      delimiter_(delimiter),
      csv_options_(csv_options),
      plan_(std::make_unique<ConversionPlan>(ConversionPlan::Compile(
          layout_, target_layout, format_, delimiter_, csv_options_, staging_format,
          staging_schema))),
      quality_(std::move(quality)) {
  plan_->AttachQuality(quality_.get());
}

DataConverter::DataConverter(DataConverter&&) noexcept = default;
DataConverter& DataConverter::operator=(DataConverter&&) noexcept = default;
DataConverter::~DataConverter() = default;

Result<ConvertedChunk> DataConverter::Convert(const ConversionInput& input,
                                              common::BufferPool* pool) const {
  ConvertedChunk out;
  const size_t estimate =
      plan_->EstimateStagingBytes(input.chunk.row_count, input.chunk.payload.size());
  if (pool != nullptr) {
    out.csv = common::ByteBuffer(pool->Acquire(estimate));
  } else {
    out.csv.reserve(estimate);
  }
  HQ_RETURN_NOT_OK(plan_->Execute(input, &out));
  return out;
}

Result<ConvertedChunk> DataConverter::ConvertReference(const ConversionInput& input) const {
  ConvertedChunk out;
  out.order_index = input.order_index;
  out.first_row_number = input.first_row_number;
  out.rows_in = input.chunk.row_count;
  out.csv.reserve(input.chunk.payload.size() + input.chunk.payload.size() / 8);

  uint64_t row_number = input.first_row_number;
  cdw::CsvRecord record;
  record.reserve(layout_.num_fields() + 1);

  // Interpretive twin of the fused quality gate: checks run over the
  // materialized Values (binary) or decoded field text (vartext), so the
  // differential test can demand identical quarantine rows and counters from
  // two independent implementations.
  const CompiledQuality* cq = quality_.get();
  QualityScratch qs;
  if (cq != nullptr) qs.Init(*cq);

  if (format_ == legacy::DataFormat::kVartext) {
    ByteReader reader(Slice(input.chunk.payload));
    while (!reader.AtEnd()) {
      auto decoded = legacy::DecodeVartextRecord(&reader, delimiter_, layout_.num_fields());
      if (!decoded.ok()) {
        // Field-count mismatch is a recoverable per-record data error; a
        // framing error poisons the rest of the chunk.
        if (decoded.status().IsConversionError()) {
          out.errors.push_back(RecordError{row_number, legacy::kErrFieldCountMismatch, "",
                                           decoded.status().message()});
          ++row_number;
          continue;
        }
        if (cq != nullptr) FinishChunkQuality(*cq, qs, &out.quality);
        return decoded.status().WithContext("chunk " + std::to_string(input.chunk.chunk_seq));
      }
      record.clear();
      if (cq != nullptr) qs.BeginRow();
      size_t field_index = 0;
      for (const auto& field : *decoded) {
        if (cq != nullptr) {
          const QualityFieldChecks* checks = cq->field_checks(field_index);
          if (checks != nullptr) {
            QcString(*checks, field.null, field.text.data(), field.text.size(), &qs);
          }
        }
        ++field_index;
        if (field.null) {
          record.push_back(std::nullopt);
        } else {
          record.push_back(field.text);
        }
      }
      record.push_back(std::to_string(row_number));
      const size_t mark = out.csv.size();
      cdw::EncodeCsvRecord(record, csv_options_, &out.csv);
      if (cq != nullptr) {
        QcFinishRow(&qs);
        qs.CommitRowStats();
        if (qs.row_kind != QualityKind::kNone) {
          QcQuarantineCsvRow(*cq, &qs, &out.csv, mark, &out.qrtn);
          ++row_number;
          continue;
        }
      }
      ++out.rows_out;
      ++row_number;
    }
  } else {
    legacy::BinaryRowCodec codec(layout_);
    ByteReader reader(Slice(input.chunk.payload));
    while (!reader.AtEnd()) {
      auto decoded = codec.DecodeRow(&reader);
      if (!decoded.ok()) {
        // Binary decode is positional: a bad record invalidates the rest of
        // the chunk payload.
        out.errors.push_back(RecordError{row_number, legacy::kErrFormatViolation, "",
                                         decoded.status().message() +
                                             " (remainder of chunk skipped)"});
        break;
      }
      const Row& row = *decoded;
      record.clear();
      if (cq != nullptr) qs.BeginRow();
      size_t field_index = 0;
      for (const auto& v : row) {
        if (cq != nullptr) cq->ValidateValue(field_index, v, &qs);
        ++field_index;
        if (v.is_null()) {
          record.push_back(std::nullopt);
        } else {
          record.push_back(types::ValueToCdwText(v));
        }
      }
      record.push_back(std::to_string(row_number));
      const size_t mark = out.csv.size();
      cdw::EncodeCsvRecord(record, csv_options_, &out.csv);
      if (cq != nullptr) {
        QcFinishRow(&qs);
        qs.CommitRowStats();
        if (qs.row_kind != QualityKind::kNone) {
          QcQuarantineCsvRow(*cq, &qs, &out.csv, mark, &out.qrtn);
          ++row_number;
          continue;
        }
      }
      ++out.rows_out;
      ++row_number;
    }
  }
  if (cq != nullptr) FinishChunkQuality(*cq, qs, &out.quality);
  return out;
}

}  // namespace hyperq::core
