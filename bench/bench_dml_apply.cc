/// Join DML apply cost in the embedded CDW: MERGE, UPDATE…FROM and
/// DELETE…USING of a staging table into a keyed target, |S| = |T| = N.
/// A second section times the §7 probe: the fig7 INSERT…SELECT (TRIM,
/// TRIM, TO_DATE and the pass-through filler columns) restricted to one
/// HQ_ROWNUM, the statement the adaptive error handler issues most, over a
/// staging table of N rows; plus the same statement over all 8000 rows.
/// A third section times a fig7 import's two CDW statements at 50000 rows,
/// the COPY of six staged CSV objects and the full-range INSERT…SELECT,
/// with 1 and N statement workers (N the hardware concurrency, at least 2),
/// and reads cdw_parallel_statements_total.
///
/// The statements are the shapes Hyper-Q's binder emits for a keyed upsert,
/// update and delete (paper §6), each restricted to the staged row range the
/// way §7's adaptive applier issues them. Half the staged keys exist in the
/// target. Every statement is timed on a freshly loaded target; the table
/// reports milliseconds per statement at each N and the growth ratio per
/// doubling of N. An O(|S|+|T|) join grows about 2x per doubling; a nested
/// loop grows 4x.
///
///   bench_dml_apply [--reps=N] [--json=PATH] [--smoke]
///
/// --json writes a machine-readable BENCH_dml.json (the probe section under
/// "PROBE": ms per statement and ns per scanned row; the 50000-row section
/// under "PARALLEL"). Every run fails (exit 1) when a statement's counts are
/// wrong (a probe must insert exactly 1 row and scan the whole staging
/// table; a join DML must scan exactly 2N rows; a parallel statement must
/// report the serial rows_scanned), a statement leaves the hash path, a
/// join DML doubling ratio exceeds 3x, a statement of two or more morsels or
/// staged objects does not take the statement workers, or a smaller one
/// does.
/// Ratios use the fastest of the repetitions, which shrugs off interference
/// from other processes better than the median. --smoke runs fewer
/// repetitions for CI.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cdw/catalog.h"
#include "cdw/copy.h"
#include "cdw/executor.h"
#include "cdw/statement_workers.h"
#include "cloudstore/object_store.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/transpiler.h"
#include "workload/dataset.h"
#include "workload/report.h"

using namespace hyperq;

namespace {

constexpr size_t kSizes[] = {1000, 2000, 4000, 8000};
constexpr double kMaxDoublingRatio = 3.0;
constexpr double kMerge8kTargetMs = 50.0;  // ROADMAP item 1

int Usage() {
  std::fprintf(stderr, "usage: bench_dml_apply [--reps=N] [--json=PATH] [--smoke]\n");
  return 2;
}

std::string Key(size_t k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "K%09zu", k);
  return buf;
}

struct Statement {
  const char* name;
  std::string sql;
  uint64_t expect_inserted;
  uint64_t expect_updated;
  uint64_t expect_deleted;
};

std::vector<Statement> Statements(size_t n) {
  const std::string range = "HQ_ROWNUM BETWEEN 1 AND " + std::to_string(n);
  return {
      {"MERGE",
       "MERGE INTO TGT T USING (SELECT * FROM STG WHERE " + range +
           ") S ON T.CUST_ID = S.CUST_ID "
           "WHEN MATCHED THEN UPDATE SET CUST_NAME = TRIM(S.CUST_NAME), "
           "BALANCE = CAST(S.BALANCE AS INTEGER) "
           "WHEN NOT MATCHED THEN INSERT VALUES (S.CUST_ID, TRIM(S.CUST_NAME), "
           "CAST(S.BALANCE AS INTEGER))",
       n - n / 2, n / 2, 0},
      {"UPDATE...FROM",
       "UPDATE TGT T SET CUST_NAME = TRIM(S.CUST_NAME), BALANCE = CAST(S.BALANCE AS INTEGER) "
       "FROM STG S WHERE T.CUST_ID = S.CUST_ID AND S." +
           range,
       0, n / 2, 0},
      {"DELETE...USING",
       "DELETE FROM TGT T USING STG S WHERE T.CUST_ID = S.CUST_ID AND S." + range, 0, 0,
       n / 2},
  };
}

/// Recreates TGT with keys 1..n and STG with n rows, half of them existing
/// keys (odd ones) and half new keys past n.
void Load(cdw::Catalog* catalog, size_t n) {
  (void)catalog->DropTable("TGT", /*if_exists=*/true);
  (void)catalog->DropTable("STG", /*if_exists=*/true);
  types::Schema target;
  target.AddField(types::Field("CUST_ID", types::TypeDesc::Varchar(12), false));
  target.AddField(types::Field("CUST_NAME", types::TypeDesc::Varchar(24)));
  target.AddField(types::Field("BALANCE", types::TypeDesc::Int32()));
  auto tgt = catalog->CreateTable("TGT", target, {"CUST_ID"}, /*unique_primary=*/true);
  types::Schema staging;
  staging.AddField(types::Field("CUST_ID", types::TypeDesc::Varchar(12)));
  staging.AddField(types::Field("CUST_NAME", types::TypeDesc::Varchar(24)));
  staging.AddField(types::Field("BALANCE", types::TypeDesc::Varchar(12)));
  staging.AddField(types::Field("HQ_ROWNUM", types::TypeDesc::Int64()));
  auto stg = catalog->CreateTable("STG", staging);
  if (!tgt.ok() || !stg.ok()) {
    std::fprintf(stderr, "table setup failed\n");
    std::exit(1);
  }
  std::vector<std::vector<types::Value>> target_cols(3);
  std::vector<std::vector<types::Value>> staging_cols(4);
  for (size_t k = 1; k <= n; ++k) {
    target_cols[0].push_back(types::Value::String(Key(k)));
    target_cols[1].push_back(types::Value::String("name"));
    target_cols[2].push_back(types::Value::Int(static_cast<int64_t>(k)));
    const size_t key = k % 2 == 1 ? k : n + k;
    staging_cols[0].push_back(types::Value::String(Key(key)));
    staging_cols[1].push_back(types::Value::String(" new name "));
    staging_cols[2].push_back(types::Value::String(std::to_string(k * 7)));
    staging_cols[3].push_back(types::Value::Int(static_cast<int64_t>(k)));
  }
  if (!(*tgt)->Commit({.appended = std::move(target_cols)}).ok() ||
      !(*stg)->Commit({.appended = std::move(staging_cols)}).ok()) {
    std::fprintf(stderr, "table load failed\n");
    std::exit(1);
  }
}

struct Timing {
  double min_ms = 0;
  double median_ms = 0;
};

Timing Summarize(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  return Timing{runs.front(), runs[runs.size() / 2]};
}

// --- §7 probes ----------------------------------------------------------------

constexpr size_t kProbeFullRows = 8000;

/// The fig7 feed: 500-byte rows, CUST_ID, CUST_NAME, JOIN_DATE and 9 fillers.
workload::CustomerDataset ProbeDataset(size_t rows = kProbeFullRows) {
  workload::DatasetSpec spec;
  spec.rows = rows;
  spec.row_bytes = 500;
  spec.seed = 7;
  return workload::CustomerDataset(spec);
}

/// Recreates PSTG, the staging table (the layout as text plus HQ_ROWNUM),
/// with the dataset's first n rows, and an empty keyed target PTGT.
void LoadProbe(cdw::Catalog* catalog, const workload::CustomerDataset& dataset, size_t n) {
  (void)catalog->DropTable("PSTG", /*if_exists=*/true);
  (void)catalog->DropTable("PTGT", /*if_exists=*/true);
  types::Schema staging = dataset.MakeLayout();
  staging.AddField(types::Field("HQ_ROWNUM", types::TypeDesc::Int64()));
  auto stg = catalog->CreateTable("PSTG", staging);
  auto ddl = sql::ParseStatement(dataset.MakeTargetDdl("PTGT"));
  cdw::Executor executor(catalog);
  if (!stg.ok() || !ddl.ok() || !executor.Execute(**ddl).ok()) {
    std::fprintf(stderr, "probe table setup failed\n");
    std::exit(1);
  }
  std::vector<std::vector<types::Value>> columns(staging.num_fields());
  bool laid_out = true;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<std::string> fields = common::Split(dataset.MakeLine(i), '|');
    laid_out &= fields.size() + 1 == columns.size();
    for (size_t c = 0; c < fields.size() && c + 1 < columns.size(); ++c) {
      columns[c].push_back(types::Value::String(fields[c]));
    }
    columns.back().push_back(types::Value::Int(static_cast<int64_t>(i + 1)));
  }
  if (!laid_out || !(*stg)->Commit({.appended = std::move(columns)}).ok()) {
    std::fprintf(stderr, "probe table load failed\n");
    std::exit(1);
  }
}

/// The fig7 insert bound to PSTG rows [first, last] and transpiled, as the
/// adaptive error handler issues it.
sql::StatementPtr ProbeStatement(const workload::CustomerDataset& dataset, size_t first,
                                 size_t last) {
  auto legacy = sql::ParseStatement(dataset.MakeInsertDml("PTGT"));
  sql::BindOptions bind;
  bind.staging_table = "PSTG";
  bind.row_number_column = "HQ_ROWNUM";
  bind.first_row = static_cast<int64_t>(first);
  bind.last_row = static_cast<int64_t>(last);
  if (!legacy.ok()) {
    std::fprintf(stderr, "probe DML: %s\n", legacy.status().ToString().c_str());
    std::exit(1);
  }
  auto bound = sql::BindDmlToStaging(**legacy, dataset.MakeLayout(), bind);
  auto cdw_stmt = bound.ok() ? sql::TranspileStatement(**bound)
                             : common::Result<sql::StatementPtr>(bound.status());
  if (!cdw_stmt.ok()) {
    std::fprintf(stderr, "probe DML: %s\n", cdw_stmt.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(cdw_stmt).ValueOrDie();
}

struct ProbeRun {
  std::string name;  ///< "singleton" or "full_range"
  size_t n;          ///< staging rows
  Timing timing;
};

/// Times each probe `reps` times, each run from an empty target. A wrong
/// row count clears *ok.
std::vector<ProbeRun> RunProbes(int reps, bool* ok) {
  const workload::CustomerDataset dataset = ProbeDataset();
  struct Probe {
    std::string name;
    size_t n;
    uint64_t expect_inserted;
    sql::StatementPtr stmt;
    std::vector<double> ms;
  };
  std::vector<Probe> probes;
  for (size_t n : kSizes) {
    probes.push_back({"singleton", n, 1, ProbeStatement(dataset, n / 2, n / 2), {}});
  }
  probes.push_back({"full_range", kProbeFullRows, kProbeFullRows,
                    ProbeStatement(dataset, 1, kProbeFullRows), {}});
  cdw::Catalog catalog;
  cdw::Executor executor(&catalog);
  cdw::ExecOptions options;
  options.enforce_unique_primary = true;
  for (Probe& probe : probes) {
    LoadProbe(&catalog, dataset, probe.n);
    auto target = catalog.GetTable("PTGT");
    for (int r = 0; r < reps; ++r) {
      (*target)->Truncate();
      common::Stopwatch watch;
      auto result = executor.Execute(*probe.stmt, options);
      probe.ms.push_back(watch.ElapsedSeconds() * 1e3);
      if (!result.ok() || result->rows_inserted != probe.expect_inserted ||
          result->rows_scanned != probe.n) {
        std::fprintf(stderr, "probe %s at N=%zu: %s (inserted %" PRIu64 ", scanned %" PRIu64
                     ")\n",
                     probe.name.c_str(), probe.n,
                     result.ok() ? "wrong counts" : result.status().ToString().c_str(),
                     result.ok() ? result->rows_inserted : 0,
                     result.ok() ? result->rows_scanned : 0);
        *ok = false;
      }
    }
  }
  std::vector<ProbeRun> out;
  for (Probe& probe : probes) out.push_back({probe.name, probe.n, Summarize(probe.ms)});
  return out;
}

// --- Parallel statements --------------------------------------------------------

constexpr size_t kParallelRows = 50000;
constexpr size_t kParallelObjects = 6;
/// One morsel and one staged object: below the parallel threshold.
constexpr size_t kSerialRows = cdw::kMorselRows - 1;

/// Stages the dataset's first `rows` rows as `objects` CSV objects under
/// `prefix`, in the staging layout (the fields as text, then HQ_ROWNUM), the
/// way an import stages them.
void StageObjects(cloud::ObjectStore* store, const workload::CustomerDataset& dataset,
                  size_t rows, size_t objects, const std::string& prefix) {
  const size_t per_object = (rows + objects - 1) / objects;
  for (size_t o = 0; o < objects; ++o) {
    common::ByteBuffer csv;
    for (size_t i = o * per_object; i < std::min(rows, (o + 1) * per_object); ++i) {
      cdw::CsvRecord record;
      for (std::string& field : common::Split(dataset.MakeLine(i), '|')) {
        record.emplace_back(std::move(field));
      }
      record.emplace_back(std::to_string(i + 1));
      cdw::EncodeCsvRecord(record, cdw::CsvOptions{}, &csv);
    }
    char key[32];
    std::snprintf(key, sizeof(key), "part-%03zu.csv", o);
    if (!store->Put(prefix + key, csv.AsSlice()).ok()) {
      std::fprintf(stderr, "staging object put failed\n");
      std::exit(1);
    }
  }
}

/// One warehouse's catalog, COPY ledger and executor, whose statements take
/// `workers` statement workers; each COPY loads a fresh staging table, and
/// the INSERT…SELECT after it fills a fresh keyed target.
class ParallelWarehouse {
 public:
  ParallelWarehouse(size_t workers, const workload::CustomerDataset& dataset)
      : dataset_(dataset),
        parallel_(registry_.GetCounter("cdw_parallel_statements_total")),
        workers_(workers, parallel_),
        executor_(&catalog_, &workers_) {
    StageObjects(&store_, dataset, kParallelRows, kParallelObjects, "big/");
    StageObjects(&store_, dataset, kSerialRows, 1, "small/");
  }

  struct Outcome {
    double ms = 0;
    uint64_t rows = 0;          ///< rows COPY loaded or INSERT…SELECT inserted
    uint64_t rows_scanned = 0;  ///< INSERT…SELECT only
    uint64_t took_pool = 0;     ///< statements that took the pool
  };

  /// COPY of `prefix` into fresh tables.
  Outcome Copy(const std::string& prefix) {
    Reset();
    cdw::Table* staging = catalog_.GetTable("PSTG").ValueOrDie().get();
    const uint64_t before = parallel_->value();
    common::Stopwatch watch;
    auto rows = cdw::CopyFromStore(staging, store_, prefix, {}, &ledger_, nullptr, &workers_);
    const Outcome out{watch.ElapsedSeconds() * 1e3, rows.ok() ? *rows : 0, 0,
                      parallel_->value() - before};
    if (!rows.ok()) {
      std::fprintf(stderr, "COPY %s: %s\n", prefix.c_str(), rows.status().ToString().c_str());
    }
    return out;
  }

  /// The fig7 INSERT…SELECT over every staged row.
  Outcome InsertSelect() {
    const size_t staged = catalog_.GetTable("PSTG").ValueOrDie()->num_rows();
    const std::string sql = sql::PrintStatement(*ProbeStatement(dataset_, 1, staged));
    cdw::ExecOptions options;
    options.enforce_unique_primary = true;
    const uint64_t before = parallel_->value();
    common::Stopwatch watch;
    auto result = executor_.ExecuteSql(sql, options);
    const Outcome out{watch.ElapsedSeconds() * 1e3, result.ok() ? result->rows_inserted : 0,
                      result.ok() ? result->rows_scanned : 0, parallel_->value() - before};
    if (!result.ok()) {
      std::fprintf(stderr, "INSERT...SELECT: %s\n", result.status().ToString().c_str());
    }
    return out;
  }

 private:
  /// Recreates the staging table PSTG and the keyed target PTGT.
  void Reset() {
    (void)catalog_.DropTable("PSTG", /*if_exists=*/true);
    (void)catalog_.DropTable("PTGT", /*if_exists=*/true);
    ledger_.clear();
    types::Schema staging = dataset_.MakeLayout();
    staging.AddField(types::Field("HQ_ROWNUM", types::TypeDesc::Int64()));
    if (!catalog_.CreateTable("PSTG", staging).ok() ||
        !executor_.ExecuteSql(dataset_.MakeTargetDdl("PTGT")).ok()) {
      std::fprintf(stderr, "parallel table setup failed\n");
      std::exit(1);
    }
  }

  const workload::CustomerDataset& dataset_;
  obs::MetricsRegistry registry_;
  obs::Counter* const parallel_;
  cloud::ObjectStore store_;
  cdw::Catalog catalog_;
  std::map<std::string, uint64_t> ledger_;  ///< the staging table's COPY ledger
  cdw::StatementWorkers workers_;
  cdw::Executor executor_;
};

struct ParallelRun {
  std::string name;  ///< "COPY" or "INSERT_SELECT"
  size_t workers;
  Timing timing;
};

/// Times the 50000-row COPY and INSERT…SELECT `reps` times with one
/// statement worker and with `workers`, alternating the two warehouses, then
/// checks the threshold with a COPY of one object and an INSERT…SELECT of
/// one morsel. A wrong count, a rows_scanned that differs from the serial
/// one, or a statement on the wrong side of the threshold clears *ok.
std::vector<ParallelRun> RunParallel(int reps, size_t workers, bool* ok) {
  const workload::CustomerDataset dataset = ProbeDataset(kParallelRows);
  ParallelWarehouse serial(1, dataset);
  ParallelWarehouse parallel(workers, dataset);
  std::vector<double> copy_ms[2];
  std::vector<double> insert_ms[2];
  auto check = [&](bool good, const char* what) {
    if (!good) std::fprintf(stderr, "parallel statements: %s\n", what);
    *ok = *ok && good;
  };
  for (int r = 0; r < reps; ++r) {
    uint64_t serial_scanned = 0;
    for (int side = 0; side < 2; ++side) {
      ParallelWarehouse& warehouse = side == 0 ? serial : parallel;
      const ParallelWarehouse::Outcome copy = warehouse.Copy("big/");
      const ParallelWarehouse::Outcome insert = warehouse.InsertSelect();
      copy_ms[side].push_back(copy.ms);
      insert_ms[side].push_back(insert.ms);
      check(copy.rows == kParallelRows, "COPY loaded the wrong row count");
      check(insert.rows == kParallelRows, "INSERT...SELECT inserted the wrong row count");
      if (side == 0) {
        serial_scanned = insert.rows_scanned;
        check(copy.took_pool + insert.took_pool == 0, "one statement worker took the pool");
        continue;
      }
      check(insert.rows_scanned == serial_scanned,
            "parallel INSERT...SELECT scanned a different row count than the serial one");
      check(copy.took_pool == 1, "a COPY of six objects did not take the pool");
      check(insert.took_pool == 1, "an INSERT...SELECT of seven morsels did not take the pool");
    }
  }
  const ParallelWarehouse::Outcome small_copy = parallel.Copy("small/");
  const ParallelWarehouse::Outcome small_insert = parallel.InsertSelect();
  check(small_copy.rows == kSerialRows, "the small COPY loaded the wrong row count");
  check(small_insert.rows == kSerialRows,
        "the small INSERT...SELECT inserted the wrong row count");
  check(small_copy.took_pool == 0, "a COPY of one object took the pool");
  check(small_insert.took_pool == 0, "an INSERT...SELECT of one morsel took the pool");
  return {{"COPY", 1, Summarize(copy_ms[0])},
          {"COPY", workers, Summarize(copy_ms[1])},
          {"INSERT_SELECT", 1, Summarize(insert_ms[0])},
          {"INSERT_SELECT", workers, Summarize(insert_ms[1])}};
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 9;
  int parallel_reps = 9;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--reps=", 0) == 0) {
      reps = static_cast<int>(std::strtol(arg.c_str() + 7, nullptr, 10));
      if (reps <= 0) return Usage();
      parallel_reps = reps;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--smoke") {
      reps = 7;
      parallel_reps = 2;
    } else {
      return Usage();
    }
  }

  std::printf("=== Join DML apply: |S| = |T| = N, half the keys matching ===\n");
  const std::vector<Statement> shapes = Statements(kSizes[0]);
  constexpr size_t kNumSizes = std::size(kSizes);
  // [statement][size]: the parsed statement and one time per repetition.
  std::vector<std::vector<sql::StatementPtr>> parsed(shapes.size());
  std::vector<std::vector<std::vector<double>>> ms(shapes.size(),
                                                   std::vector<std::vector<double>>(kNumSizes));
  for (size_t i = 0; i < kNumSizes; ++i) {
    const std::vector<Statement> statements = Statements(kSizes[i]);
    for (size_t s = 0; s < statements.size(); ++s) {
      auto stmt = sql::ParseStatement(statements[s].sql);
      if (!stmt.ok()) {
        std::fprintf(stderr, "%s: %s\n", statements[s].name, stmt.status().ToString().c_str());
        return 1;
      }
      parsed[s].push_back(std::move(stmt).ValueOrDie());
    }
  }
  bool ok = true;
  cdw::Catalog catalog;
  cdw::Executor executor(&catalog);
  cdw::ExecOptions options;
  options.enforce_unique_primary = true;
  // Repetitions go round-robin over the sizes, so a burst of load from other
  // processes lands on every size alike instead of skewing one ratio.
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < kNumSizes; ++i) {
      const size_t n = kSizes[i];
      const std::vector<Statement> statements = Statements(n);
      for (size_t s = 0; s < statements.size(); ++s) {
        const Statement& st = statements[s];
        Load(&catalog, n);
        common::Stopwatch watch;
        auto result = executor.Execute(*parsed[s][i], options);
        ms[s][i].push_back(watch.ElapsedSeconds() * 1e3);
        if (!result.ok()) {
          std::fprintf(stderr, "%s at N=%zu: %s\n", st.name, n,
                       result.status().ToString().c_str());
          return 1;
        }
        if (result->rows_inserted != st.expect_inserted ||
            result->rows_updated != st.expect_updated ||
            result->rows_deleted != st.expect_deleted) {
          std::fprintf(stderr, "%s at N=%zu: wrong counts (ins %" PRIu64 ", upd %" PRIu64
                       ", del %" PRIu64 ")\n",
                       st.name, n, result->rows_inserted, result->rows_updated,
                       result->rows_deleted);
          ok = false;
        }
        // The hash path visits each of the N target rows and each of the N
        // staging rows once: one side builds the index, the other drives.
        if (result->rows_scanned != 2 * n) {
          std::fprintf(stderr, "%s at N=%zu: scanned %" PRIu64 " rows, want 2N = %zu\n",
                       st.name, n, result->rows_scanned, 2 * n);
          ok = false;
        }
        if (result->join_path != cdw::JoinPath::kHash) {
          std::fprintf(stderr, "%s at N=%zu: left the hash path\n", st.name, n);
          ok = false;
        }
      }
    }
  }
  std::vector<std::vector<Timing>> timings(shapes.size());  // [statement][size]
  for (size_t s = 0; s < shapes.size(); ++s) {
    for (std::vector<double>& runs : ms[s]) timings[s].push_back(Summarize(std::move(runs)));
  }

  workload::ReportTable table(
      {"statement", "N", "median ms", "min ms", "us/row", "x per doubling (min)"});
  char buf[64];
  auto fmt = [&](const char* f, double v) {
    std::snprintf(buf, sizeof(buf), f, v);
    return std::string(buf);
  };
  std::vector<std::vector<double>> ratios(shapes.size());
  bool linear = true;
  for (size_t s = 0; s < shapes.size(); ++s) {
    for (size_t i = 0; i < kNumSizes; ++i) {
      const Timing& t = timings[s][i];
      std::string ratio = "-";
      if (i > 0) {
        const double x = t.min_ms / timings[s][i - 1].min_ms;
        ratios[s].push_back(x);
        ratio = fmt("%.2f", x);
        linear = linear && x <= kMaxDoublingRatio;
      }
      table.AddRow({shapes[s].name, std::to_string(kSizes[i]), fmt("%.3f", t.median_ms),
                    fmt("%.3f", t.min_ms), fmt("%.2f", t.median_ms * 1e3 / kSizes[i]), ratio});
    }
  }
  table.Print();
  const double merge_8k = timings[0].back().median_ms;
  std::printf("MERGE %zux%zu: %.2f ms (target < %.0f ms: %s)\n", kSizes[3], kSizes[3], merge_8k,
              kMerge8kTargetMs, merge_8k < kMerge8kTargetMs ? "YES" : "NO");
  std::printf("doubling ratios <= %.1fx (linear, not quadratic): %s\n", kMaxDoublingRatio,
              linear ? "YES" : "NO");

  std::printf("\n=== Section 7 probe: fig7 INSERT...SELECT over a staging table of N rows ===\n");
  const std::vector<ProbeRun> probes = RunProbes(reps, &ok);
  workload::ReportTable probe_table({"probe", "N", "median ms", "min ms", "ns/scanned row"});
  for (const ProbeRun& p : probes) {
    probe_table.AddRow({p.name, std::to_string(p.n), fmt("%.3f", p.timing.median_ms),
                        fmt("%.3f", p.timing.min_ms),
                        fmt("%.1f", p.timing.median_ms * 1e6 / static_cast<double>(p.n))});
  }
  probe_table.Print();

  const size_t workers = std::max<size_t>(2, std::thread::hardware_concurrency());
  std::printf("\n=== Parallel statements: fig7 COPY and INSERT...SELECT of %zu rows ===\n",
              kParallelRows);
  const std::vector<ParallelRun> parallel = RunParallel(parallel_reps, workers, &ok);
  workload::ReportTable parallel_table(
      {"statement", "rows", "workers", "median ms", "min ms", "x vs 1 worker (median)"});
  for (size_t i = 0; i < parallel.size(); ++i) {
    const ParallelRun& p = parallel[i];
    const double serial_ms = parallel[i - i % 2].timing.median_ms;
    parallel_table.AddRow({p.name, std::to_string(kParallelRows), std::to_string(p.workers),
                           fmt("%.3f", p.timing.median_ms), fmt("%.3f", p.timing.min_ms),
                           fmt("%.2f", serial_ms / p.timing.median_ms)});
  }
  parallel_table.Print();

  if (!json_path.empty()) {
    std::string json = "{\n  \"benchmark\": \"bench_dml_apply\",\n";
    json += "  \"reps\": " + std::to_string(reps) + ",\n  \"results\": {\n";
    for (size_t s = 0; s < shapes.size(); ++s) {
      json += std::string("    \"") + shapes[s].name + "\": {\n";
      for (size_t i = 0; i < kNumSizes; ++i) {
        json += "      \"" + std::to_string(kSizes[i]) + "\": {\"median_ms\": " +
                fmt("%.3f", timings[s][i].median_ms) + ", \"min_ms\": " +
                fmt("%.3f", timings[s][i].min_ms) + "},\n";
      }
      json += "      \"doubling_ratios\": [";
      for (size_t i = 0; i < ratios[s].size(); ++i) {
        json += (i > 0 ? ", " : "") + fmt("%.2f", ratios[s][i]);
      }
      json += std::string("]\n    }") + (s + 1 < shapes.size() ? "," : "") + "\n";
    }
    json += "  },\n  \"PROBE\": {\n";
    for (size_t i = 0; i < probes.size(); ++i) {
      const ProbeRun& p = probes[i];
      json += "    \"" + p.name + "_" + std::to_string(p.n) + "\": {\"median_ms\": " +
              fmt("%.3f", p.timing.median_ms) + ", \"min_ms\": " + fmt("%.3f", p.timing.min_ms) +
              ", \"ns_per_scanned_row\": " +
              fmt("%.1f", p.timing.median_ms * 1e6 / static_cast<double>(p.n)) + "}" +
              (i + 1 < probes.size() ? "," : "") + "\n";
    }
    json += "  },\n  \"PARALLEL\": {\n";
    for (size_t i = 0; i < parallel.size(); ++i) {
      const ParallelRun& p = parallel[i];
      json += "    \"" + p.name + "_" + std::to_string(kParallelRows) + "_workers_" +
              std::to_string(p.workers) + "\": {\"median_ms\": " +
              fmt("%.3f", p.timing.median_ms) + ", \"min_ms\": " + fmt("%.3f", p.timing.min_ms) +
              "}" + (i + 1 < parallel.size() ? "," : "") + "\n";
    }
    json += "  }\n}\n";
    std::ofstream file(json_path, std::ios::binary | std::ios::trunc);
    file << json;
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return ok && linear ? 0 : 1;
}
