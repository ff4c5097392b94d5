// The database the workloads run against, built the same way by both of
// them: readings (and, for rot_cycle, clicks and events) ingested one
// tick period at a time over several virtual days, with the clock
// advanced one period per AdvanceTime call; then a checkpoint that saves
// and reloads snapshots and checks every reloaded copy.
//
// World also holds the benchmark's own record of what it generated
// (the oracle) and the layer meter the traced run reports from.

#ifndef FUNGUSBENCH_WORLD_H_
#define FUNGUSBENCH_WORLD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "dataset.h"
#include "fungusdb/database.h"

namespace fungusbench {

/// Sizes and policies of one build. Times are virtual.
struct Plan {
  /// Days of distinct pre-generated input; longer runs replay them.
  int days = 8;
  Duration period = 30 * fungusdb::kMinute;  // tick period of every table
  /// Mean rows per tick period; each period's count is drawn within a
  /// fifth of it.
  size_t readings_per_step = 125;
  Duration readings_retention = 3 * fungusdb::kDay;
  /// 0 leaves out the clicks table.
  size_t clicks_per_step = 0;
  double egi_seeds_per_tick = 2.0;
  /// Writer operations against events per step (0: no events table in
  /// the build); every `consume_every`-th is a CONSUME.
  size_t event_ops_per_step = 0;
  int consume_every = 16;
  Duration events_retention = 6 * fungusdb::kHour;
  /// Run the analytic read set after every `read_every`-th step (0: no
  /// reads during the build).
  int read_every = 0;
  /// DatabaseOptions::num_threads. One: ThreadPool::ParallelFor lets a
  /// helper notify a condition variable that lives on the caller's
  /// stack after the caller may have returned, which now and then
  /// crashes a run with more threads.
  size_t num_threads = 1;
  size_t num_shards = 2;
  uint64_t freeze_after_idle_ticks = 4;
  int snapshot_saves = 2;
  int snapshot_loads = 2;
  /// Day at whose end the base of the incremental snapshot is saved
  /// (-1: each checkpoint's full snapshot is the next one's base).
  int base_day = -1;
};

/// Per-layer measurements, filled only where the traced run asks for
/// them, plus the end-to-end samples every run takes.
struct Meter {
  // End to end.
  Samples tick_us;          // one AdvanceTime(period)
  Samples read_us;          // reads issued by the workload's caller
  Samples analytic_us;      // the agg and group classes among them
  Samples write_us;         // writes issued by the workload's caller
  double read_busy_s = 0;   // for embedded callers: time inside reads
  Samples ingest_rows_per_s;  // one per Ingest call
  Samples save_ms;
  Samples load_ms;
  // Space per live row, at every checkpoint.
  Samples mem_bytes_per_row;       // tables' memory + cellar
  Samples snapshot_bytes_per_row;  // full snapshot file

  // query
  Samples parse_us;
  Samples exec_us[kNumReadClasses];
  Samples serde_us;
  Samples result_bytes;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t segments_pruned = 0;
  uint64_t segments_scanned = 0;
  // server
  Samples transport_read_us;
  double transport_write_us = 0;
  double queue_wait_p50 = 0;
  double queue_wait_p99 = 0;
  // core
  double pin_wait_p50 = 0;
  double pin_wait_p99 = 0;
  Samples insert_us;
  Samples consume_us;
  Samples advance_us;
  // fungus, per tick
  uint64_t ticks_readings = 0;
  uint64_t ticks_clicks = 0;
  fungusdb::DecayStats decay_readings;
  fungusdb::DecayStats decay_clicks;
  Samples barrier_wait_us;  // mean per build, from the program's histogram
  // pipeline
  Samples ingest_ns_per_row_readings;
  Samples ingest_ns_per_row_clicks;
  uint64_t rows_cooked = 0;
  uint64_t build_ticks = 0;  // AdvanceTime calls in the build loop
  // storage, sampled at the end of every day
  Samples frozen_frac;
  Samples freeze_ratio;
  Samples live_per_segment_readings;
  Samples live_per_segment_clicks;
  uint64_t thaws = 0;
  // summary
  double cellar_bytes = 0;
  double cellar_entries = 0;
  // persist
  Samples serialize_ms;
  Samples deserialize_ms;
  Samples incremental_ms;
  uint64_t blocks_reused = 0;
  uint64_t blocks_total = 0;
};

/// Operations per second of an embedded writer, from its latency
/// samples in microseconds (see Samples::MedianBlockRate).
double WriteRate(const Samples& write_us);

/// Adds every end-to-end metric that comes from the build (ticks,
/// ingest, snapshots, space) to `report`.
void ReportBuildMetrics(const Meter& m, Report& report);
/// Adds every per-layer metric to `report` (zero where the workload
/// does not reach a layer).
void ReportLayerMetrics(const Meter& m, Report& report);

/// Replays one read through the layers an embedded reader calls —
/// ParseQuery, Session::ExecuteRead, SerializeResultSet and
/// DeserializeResultSet — timing each into `meter` under spans tagged
/// `id`. Returns the summed in-process time in microseconds.
double ReplayRead(fungusdb::Session& session, const ReadStmt& stmt,
                  uint64_t id, Tracer& tracer, Meter& meter);

/// Folds one client thread's read-side samples into `into`.
void MergeQueryMeter(Meter& into, const Meter& from);

class World {
 public:
  /// Generates every input of `plan` from `seed`.
  World(const Plan& plan, uint64_t seed, const Args& args, Tracer& tracer,
        Meter& meter, Report& report);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Creates the database and its tables.
  void Create();
  /// Runs `n` more days: per tick period an ingest of each batch, the
  /// writer's events, one AdvanceTime and (every `read_every` periods)
  /// the read set; per day one CONSUME on clicks and the checks.
  void RunDays(int n);
  /// Saves, reloads and checks snapshots, saves an incremental one and
  /// records space and the program's histograms.
  void Checkpoint();
  /// Records space (and, given the size of a full snapshot, its bytes
  /// per live row), cooked rows, thaws and the program's histograms.
  void RecordState(double snapshot_bytes = 0);
  /// Where measurements go from now on.
  void set_meter(Meter& meter) { meter_ = &meter; }
  /// Seconds spent inside the program's calls of the build so far:
  /// table creation, ingests, inserts, CONSUMEs, ticks, reads and snapshot
  /// saves and loads. The benchmark's own input generation, oracle,
  /// checks and traced replays are left out.
  double program_s() const { return program_s_; }

  /// Hands the database over (e.g. to a server); World keeps a pointer.
  std::unique_ptr<fungusdb::Database> Release() { return std::move(owned_); }
  fungusdb::Database& db() { return *db_; }

  ReadingsOracle& readings() { return readings_; }

  /// Latest readings tick at or before `now`.
  Timestamp LastTick(Timestamp now) const {
    return now / plan_.period * plan_.period;
  }

  /// Checks live + cooked == generated per sensor, per user (clicks) and
  /// per event user on `db`, and that live readings match the retention
  /// rule. `what` names the database in failure messages.
  void CheckConservation(fungusdb::Database& db, const std::string& what);

  /// Applies one self-test perturbation to an answer (once per run).
  bool MaybePerturb(ReadClass cls, ResultSet& rs);

  /// Fails the run unless Fsck() of `db` is clean.
  void Fsck(fungusdb::Database& db, const std::string& what);

 private:
  void CreateTables();
  /// Runs a read the way an embedded caller does (ExecuteSql), timing
  /// it, and — in a traced run — replays it through the layers.
  fungusdb::Result<ResultSet> EmbeddedRead(const ReadStmt& stmt,
                                           uint64_t id);
  void Step(int day, int step);
  void RunReads(int point);
  void EndOfDay(int day);
  /// The run's snapshot file of one kind (full, base, inc).
  std::string SnapshotPath(const std::string& kind) const;
  void SampleStorage();
  void EventOp(uint64_t op);

  const Plan plan_;
  const Args& args_;
  Tracer& tracer_;
  Meter* meter_;
  Report& report_;

  std::unique_ptr<fungusdb::Database> owned_;
  fungusdb::Database* db_ = nullptr;
  size_t readings_attachment_ = 0;
  size_t clicks_attachment_ = 0;

  // Pre-generated inputs.
  std::vector<std::vector<Reading>> reading_chunks_;
  std::vector<std::vector<Click>> click_chunks_;
  std::vector<Event> events_;
  std::vector<int64_t> consume_users_;
  std::vector<std::vector<ReadStmt>> read_points_;
  std::vector<ReadStmt> checkpoint_stmts_;

  // Oracle.
  ReadingsOracle readings_;
  std::vector<uint64_t> clicks_generated_;
  std::vector<uint64_t> events_acked_;
  uint64_t event_ops_ = 0;
  int day_ = 0;
  uint64_t cooked_seen_ = 0;
  uint64_t thaws_seen_ = 0;
  double program_s_ = 0;
  bool perturbed_ = false;
  std::unique_ptr<fungusdb::Session> session_;
};

}  // namespace fungusbench

#endif  // FUNGUSBENCH_WORLD_H_
