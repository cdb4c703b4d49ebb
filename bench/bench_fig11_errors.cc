/// Figure 11 — Error Handling Performance.
///
/// Paper setup: elapsed load time vs percentage of erroneous records, for
/// (a) a baseline system that loads records with singleton inserts and logs
/// each error immediately, and (b) Hyper-Q's bulk load with adaptive error
/// handling. Expected shape:
///   - Hyper-Q is far faster when errors are absent or rare,
///   - a steep jump from 0% to 1% (the first error triggers the adaptive
///     split machinery),
///   - Hyper-Q's time grows with the error rate while the baseline is flat,
///   - Hyper-Q still wins at 10% (max_errors caps the search).
/// The Hyper-Q series runs the paper's halving search (ErrorIsolation::
/// kHalving), so these checks test the paper's shape. A planned series runs
/// beside it: the same loads with the default planned isolation (one
/// suspect query, clean runs in bulk, suspects as singletons, the
/// statements the suspect query predicts sent as one batch). Below the
/// max_errors cutoff its loads must record the same errors, and at every
/// nonzero error rate it must issue fewer statements than halving and make
/// at most 4 apply round trips (root, suspect query, batch, ET insert): the
/// bench exits 1 when any of these fails. The timing shape checks only
/// print, so the ctest bench_fig11_counts runs this bench as a count gate.
///
/// --quality adds a third series: the same loads with the declarative
/// data-quality gate armed with a constraint that catches the seeded bad
/// dates (JOIN_DATE:charset[0-9-]). Dirty rows divert to the quarantine
/// table during conversion, so they never reach the DML and never trigger
/// the adaptive split machinery — the expected shape is a near-flat curve.
/// --json=PATH writes the machine-readable BENCH_errors.json.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "hyperq/baseline_loader.h"
#include "hyperq/error_handler.h"
#include "sql/parser.h"

using namespace hyperq;

namespace {

double RunBaseline(const workload::DatasetSpec& spec, int64_t statement_startup_micros) {
  cloud::ObjectStore store;
  cdw::CdwServerOptions cdw_options;
  cdw_options.statement_startup_micros = statement_startup_micros;
  cdw::CdwServer cdw(&store, cdw_options);

  workload::CustomerDataset dataset(spec);
  (void)cdw.ExecuteSql(dataset.MakeTargetDdl("T"));
  (void)cdw.catalog()->CreateTable("T_ERR", core::MakeEtErrorSchema());

  auto dml = sql::ParseStatement(dataset.MakeInsertDml("T")).ValueOrDie();
  core::BaselineSingletonLoader loader(&cdw, "T_ERR");
  auto records = dataset.MakeRecords();
  auto report = loader.Load(*dml, dataset.MakeLayout(), records);
  if (!report.ok()) {
    std::fprintf(stderr, "baseline failed: %s\n", report.status().ToString().c_str());
    std::exit(1);
  }
  return report->elapsed_seconds;
}

struct RatePoint {
  double rate = 0;
  double hq_seconds = 0;
  double baseline_seconds = 0;
  uint64_t hq_statements = 0;
  uint64_t hq_errors = 0;
  bool hq_wins = false;
  /// Planned isolation series.
  double planned_seconds = 0;
  uint64_t planned_statements = 0;
  uint64_t planned_round_trips = 0;
  /// --quality series (zeroed when the variant is off).
  double quality_seconds = 0;
  uint64_t quality_statements = 0;
  uint64_t rows_quarantined = 0;
  uint64_t quality_et_errors = 0;
};

bench::JobRunConfig MakeConfig(const workload::DatasetSpec& spec, int64_t startup_micros) {
  bench::JobRunConfig config;
  config.dataset = spec;
  config.sessions = 2;
  config.chunk_rows = 500;
  config.max_errors = 100;  // the paper's bound on error isolation
  config.cdw.statement_startup_micros = startup_micros;
  config.cdw.copy_startup_micros = startup_micros;
  config.work_dir = "/tmp/hyperq_bench_fig11";
  return config;
}

void WriteJson(const std::string& path, const std::vector<RatePoint>& points,
               bool with_quality, uint64_t rows) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  char buf[512];
  file << "{\n  \"benchmark\": \"bench_fig11_errors\",\n";
  std::snprintf(buf, sizeof(buf), "  \"rows\": %llu,\n  \"results\": [\n",
                static_cast<unsigned long long>(rows));
  file << buf;
  for (size_t i = 0; i < points.size(); ++i) {
    const RatePoint& p = points[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"error_pct\": %.1f, \"hyperq_s\": %.4f, \"baseline_s\": %.4f, "
                  "\"hq_statements\": %llu, \"hq_errors\": %llu, \"hq_wins\": %s, "
                  "\"planned_s\": %.4f, \"planned_statements\": %llu, "
                  "\"planned_round_trips\": %llu",
                  p.rate * 100, p.hq_seconds, p.baseline_seconds,
                  static_cast<unsigned long long>(p.hq_statements),
                  static_cast<unsigned long long>(p.hq_errors), p.hq_wins ? "true" : "false",
                  p.planned_seconds, static_cast<unsigned long long>(p.planned_statements),
                  static_cast<unsigned long long>(p.planned_round_trips));
    file << buf;
    if (with_quality) {
      std::snprintf(buf, sizeof(buf),
                    ", \"quality_s\": %.4f, \"quality_statements\": %llu, "
                    "\"rows_quarantined\": %llu, \"quality_et_errors\": %llu",
                    p.quality_seconds, static_cast<unsigned long long>(p.quality_statements),
                    static_cast<unsigned long long>(p.rows_quarantined),
                    static_cast<unsigned long long>(p.quality_et_errors));
      file << buf;
    }
    file << (i + 1 < points.size() ? "},\n" : "}\n");
  }
  file << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool with_quality = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quality") {
      with_quality = true;
    } else if (arg == "--json") {
      json_path = "BENCH_errors.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: bench_fig11_errors [--quality] [--json[=PATH]]\n");
      return 2;
    }
  }

  std::printf("=== Figure 11: error handling performance (adaptive vs baseline%s) ===\n",
              with_quality ? " vs quality gate" : "");
  const double kErrorRates[] = {0.0, 0.01, 0.02, 0.05, 0.10};
  const uint64_t kRows = 2000;
  const int64_t kStartupMicros = 250;  // per-statement cloud round trip

  std::vector<std::string> columns = {"error_%",   "hyperq_s", "baseline_s", "hq_stmts", "hq_errors",
                                      "hq_wins",   "planned_s", "p_stmts",   "p_trips"};
  if (with_quality) {
    columns.insert(columns.end(), {"quality_s", "q_stmts", "q_qrtn"});
  }
  workload::ReportTable table(columns);
  std::vector<RatePoint> points;
  double hq_at_0 = 0;
  double hq_at_1 = 0;
  bool hyperq_always_wins = true;
  bool planned_fewer_statements = true;
  // Root, suspect query, one batch and the ET insert.
  constexpr uint64_t kPlannedRoundTrips = 4;
  bool planned_few_round_trips = true;

  for (double rate : kErrorRates) {
    workload::DatasetSpec spec;
    spec.rows = kRows;
    spec.row_bytes = 200;
    spec.bad_date_fraction = rate;
    spec.seed = 11;

    // Hyper-Q: full pipeline (bulk staging + adaptive application), with
    // the paper's halving search and with planned isolation.
    bench::JobRunConfig halving = MakeConfig(spec, kStartupMicros);
    halving.hyperq.error_isolation = core::ErrorIsolation::kHalving;
    auto hq = bench::RunImportJob(halving);
    if (!hq.ok()) {
      std::fprintf(stderr, "hyperq run failed: %s\n", hq.status().ToString().c_str());
      return 1;
    }
    auto planned = bench::RunImportJob(MakeConfig(spec, kStartupMicros));
    if (!planned.ok()) {
      std::fprintf(stderr, "planned run failed: %s\n", planned.status().ToString().c_str());
      return 1;
    }
    // Row numbers follow chunk arrival, which varies from run to run, so
    // once max_errors cuts the search short the two runs may stop at
    // different rows. Below the cutoff every bad row is recorded either way.
    const bool below_cutoff = hq->dml.range_errors == 0 && planned->dml.range_errors == 0;
    if (below_cutoff && (planned->report.rows_inserted != hq->report.rows_inserted ||
                         planned->report.et_errors != hq->report.et_errors ||
                         planned->report.uv_errors != hq->report.uv_errors)) {
      std::fprintf(stderr, "planned run differs from halving at %.0f%% errors\n", rate * 100);
      return 1;
    }

    RatePoint point;
    point.rate = rate;
    point.hq_seconds = hq->total_seconds;
    point.baseline_seconds = RunBaseline(spec, kStartupMicros);
    point.hq_statements = hq->dml.statements_issued;
    point.hq_errors = hq->report.et_errors + hq->report.uv_errors;
    point.hq_wins = point.hq_seconds < point.baseline_seconds;
    point.planned_seconds = planned->total_seconds;
    point.planned_statements = planned->dml.statements_issued;
    point.planned_round_trips = planned->dml.round_trips;
    if (rate > 0 && point.planned_statements >= point.hq_statements) {
      planned_fewer_statements = false;
    }
    if (rate > 0 && point.planned_round_trips > kPlannedRoundTrips) {
      planned_few_round_trips = false;
    }

    if (with_quality) {
      // Same load, gate armed: the seeded bad dates are all "xx"-prefixed,
      // so a digits-and-dashes charset catches exactly them during
      // conversion — they quarantine instead of exercising the adaptive
      // split machinery.
      bench::JobRunConfig config = MakeConfig(spec, kStartupMicros);
      config.hyperq.quality.spec = "BENCH.TARGET{JOIN_DATE:charset[0-9-]}";
      auto gated = bench::RunImportJob(config);
      if (!gated.ok()) {
        std::fprintf(stderr, "quality run failed: %s\n", gated.status().ToString().c_str());
        return 1;
      }
      point.quality_seconds = gated->total_seconds;
      point.quality_statements = gated->dml.statements_issued;
      point.rows_quarantined = gated->quality.rows_quarantined;
      point.quality_et_errors = gated->report.et_errors + gated->report.uv_errors;
      if (gated->quality.rows_quarantined + gated->report.rows_inserted != kRows) {
        std::fprintf(stderr, "quality run lost rows: %llu quarantined + %llu inserted != %llu\n",
                     static_cast<unsigned long long>(gated->quality.rows_quarantined),
                     static_cast<unsigned long long>(gated->report.rows_inserted),
                     static_cast<unsigned long long>(kRows));
        return 1;
      }
    }

    if (rate == 0.0) hq_at_0 = point.hq_seconds;
    if (rate == 0.01) hq_at_1 = point.hq_seconds;
    if (!point.hq_wins) hyperq_always_wins = false;

    std::vector<std::string> row = {workload::FormatDouble(rate * 100, 1),
                                    workload::FormatSeconds(point.hq_seconds),
                                    workload::FormatSeconds(point.baseline_seconds),
                                    std::to_string(point.hq_statements),
                                    std::to_string(point.hq_errors),
                                    point.hq_wins ? "yes" : "NO",
                                    workload::FormatSeconds(point.planned_seconds),
                                    std::to_string(point.planned_statements),
                                    std::to_string(point.planned_round_trips)};
    if (with_quality) {
      row.push_back(workload::FormatSeconds(point.quality_seconds));
      row.push_back(std::to_string(point.quality_statements));
      row.push_back(std::to_string(point.rows_quarantined));
    }
    table.AddRow(row);
    points.push_back(point);
  }
  table.Print();
  std::printf("shape: steep increase from 0%% to 1%% errors: %s (%.3fs -> %.3fs)\n",
              hq_at_1 > hq_at_0 * 1.3 ? "YES" : "NO", hq_at_0, hq_at_1);
  std::printf("shape: Hyper-Q outperforms the baseline at every error rate: %s\n",
              hyperq_always_wins ? "YES" : "NO");
  std::printf("planned: fewer statements than halving at every nonzero error rate: %s\n",
              planned_fewer_statements ? "YES" : "NO");
  std::printf("planned: at most %llu apply round trips at every nonzero error rate: %s\n",
              static_cast<unsigned long long>(kPlannedRoundTrips),
              planned_few_round_trips ? "YES" : "NO");
  if (with_quality) {
    // The gate diverts every bad row before the DML, so no adaptive splits:
    // statements stay at the error-free count across the sweep.
    bool flat_statements = true;
    for (const RatePoint& p : points) {
      if (p.quality_statements != points.front().quality_statements) flat_statements = false;
    }
    std::printf("shape: quality gate keeps statement count flat across error rates: %s\n",
                flat_statements ? "YES" : "NO");
  }
  if (!json_path.empty()) {
    WriteJson(json_path, points, with_quality, kRows);
    std::printf("wrote %s\n", json_path.c_str());
  }
  // Statement and round-trip counts do not depend on timing, so these
  // claims are gates.
  return planned_fewer_statements && planned_few_round_trips ? 0 : 1;
}
