#include "world.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "fungusdb/fungi.h"
#include "fungusdb/persist.h"
#include "fungusdb/query.h"
#include "fungusdb/summaries.h"
#include "query/result_set_serde.h"

namespace fungusbench {

using fungusdb::Database;
using fungusdb::Result;

namespace {

constexpr int kStepsPerDay = 48;
/// Statements of each class (lookup, range, agg, group, topk) at every
/// read point of the build; the clicks-by-user query follows them.
constexpr int kReadsPerPoint[kNumReadClasses] = {3, 2, 1, 1, 1};

const char* const kExecSpan[kNumReadClasses] = {
    "query.exec.lookup", "query.exec.range", "query.exec.agg",
    "query.exec.group", "query.exec.topk"};

const char kClicksByUser[] =
    "SELECT user, count(*) AS n FROM clicks GROUP BY user ORDER BY user";

fungusdb::DecayStats Minus(const fungusdb::DecayStats& a,
                           const fungusdb::DecayStats& b) {
  fungusdb::DecayStats d;
  d.tuples_touched = a.tuples_touched - b.tuples_touched;
  d.tuples_killed = a.tuples_killed - b.tuples_killed;
  d.seeds_planted = a.seeds_planted - b.seeds_planted;
  d.segments_skipped = a.segments_skipped - b.segments_skipped;
  d.segments_folded = a.segments_folded - b.segments_folded;
  d.rows_materialized = a.rows_materialized - b.rows_materialized;
  return d;
}

double PerTick(uint64_t count, uint64_t ticks) {
  return ticks == 0 ? 0.0
                    : static_cast<double>(count) / static_cast<double>(ticks);
}

double FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                        : 0.0;
}

/// Per-key counts of a cooked GroupedAggregate cellar entry. Keys are
/// rendered by Value::ToString, so strings arrive quoted.
std::map<std::string, uint64_t> CookedCounts(const Database& db,
                                             const std::string& entry) {
  std::map<std::string, uint64_t> out;
  const fungusdb::Summary* s = db.cellar().Find(entry);
  const auto* g = dynamic_cast<const fungusdb::GroupedAggregate*>(s);
  if (g == nullptr) return out;
  for (const auto& [key, state] : g->Entries()) {
    std::string k = key;
    if (k.size() >= 2 && k.front() == '\'' && k.back() == '\'') {
      k = k.substr(1, k.size() - 2);
    }
    out[k] = state.count;
  }
  return out;
}

std::string KeyString(const Value& v) {
  if (v.is_null()) return "null";
  if (v.type() == fungusdb::DataType::kString) return v.AsString();
  return std::to_string(v.AsInt64());
}

}  // namespace

double ReplayRead(fungusdb::Session& session, const ReadStmt& stmt,
                  uint64_t id, Tracer& tracer, Meter& meter) {
  double total = 0;
  Result<fungusdb::Query> query = [&] {
    Tracer::Scope span(tracer, "query.parse", id);
    Result<fungusdb::Query> q = fungusdb::ParseQuery(stmt.sql);
    const double us = span.ElapsedUs();
    meter.parse_us.Add(us);
    total += us;
    return q;
  }();
  if (!query.ok()) return total;
  Result<ResultSet> rs = [&] {
    Tracer::Scope span(tracer, kExecSpan[static_cast<int>(stmt.cls)], id);
    Result<ResultSet> r = session.ExecuteRead(query.value());
    const double us = span.ElapsedUs();
    meter.exec_us[static_cast<int>(stmt.cls)].Add(us);
    total += us;
    return r;
  }();
  if (!rs.ok()) return total;
  const ResultSet::Stats& st = rs.value().stats;
  meter.rows_scanned += st.rows_scanned;
  meter.rows_matched += st.rows_matched;
  meter.segments_pruned += st.segments_pruned;
  meter.segments_scanned += st.segments_scanned;
  Tracer::Scope span(tracer, "query.serde", id);
  fungusdb::BufferWriter out;
  fungusdb::SerializeResultSet(rs.value(), out);
  fungusdb::BufferReader in(out.buffer());
  Result<ResultSet> back = fungusdb::DeserializeResultSet(in);
  const double us = span.ElapsedUs();
  meter.serde_us.Add(us);
  meter.result_bytes.Add(static_cast<double>(out.size()));
  return back.ok() ? total + us : total;
}

void MergeQueryMeter(Meter& into, const Meter& from) {
  into.read_us.Append(from.read_us);
  into.analytic_us.Append(from.analytic_us);
  into.parse_us.Append(from.parse_us);
  for (int c = 0; c < kNumReadClasses; ++c) {
    into.exec_us[c].Append(from.exec_us[c]);
  }
  into.serde_us.Append(from.serde_us);
  into.result_bytes.Append(from.result_bytes);
  into.rows_scanned += from.rows_scanned;
  into.rows_matched += from.rows_matched;
  into.segments_pruned += from.segments_pruned;
  into.segments_scanned += from.segments_scanned;
  into.transport_read_us.Append(from.transport_read_us);
}

World::World(const Plan& plan, uint64_t seed, const Args& args,
             Tracer& tracer, Meter& meter, Report& report)
    : plan_(plan), args_(args), tracer_(tracer), meter_(&meter),
      report_(report) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  const int steps = plan_.days * kStepsPerDay;
  // Arrivals per period vary by up to a fifth around the plan's rate.
  auto around = [&rng](size_t n) {
    return n - n / 5 + static_cast<size_t>(rng.Below(2 * (n / 5) + 1));
  };
  for (int s = 0; s < steps; ++s) {
    reading_chunks_.push_back(
        GenerateReadings(rng, around(plan_.readings_per_step)));
    if (plan_.clicks_per_step > 0) {
      click_chunks_.push_back(
          GenerateClicks(rng, around(plan_.clicks_per_step)));
    }
    for (size_t i = 0; i < plan_.event_ops_per_step; ++i) {
      events_.push_back(GenerateEvent(rng));
    }
  }
  for (int d = 0; d < plan_.days; ++d) {
    consume_users_.push_back(static_cast<int64_t>(rng.Below(kUsers)));
  }
  // Lookups look back from the time they are issued (see ReadAt). Every
  // read point issues the same number of statements of each class, so
  // the cheap classes dominate as they do on the server and the mix does
  // not depend on the seed.
  if (plan_.read_every > 0) {
    constexpr size_t kPerClass = 16;
    const std::vector<ReadStmt> pool = MakeReadPool(rng, kPerClass, 0);
    for (int s = plan_.read_every - 1; s < steps; s += plan_.read_every) {
      std::vector<ReadStmt> point;
      for (int c = 0; c < kNumReadClasses; ++c) {
        for (int i = 0; i < kReadsPerPoint[c]; ++i) {
          point.push_back(pool[c * kPerClass + rng.Below(kPerClass)]);
        }
      }
      read_points_.push_back(std::move(point));
    }
  }
  checkpoint_stmts_ = MakeReadPool(rng, 1, 0);
  clicks_generated_.assign(kUsers, 0);
  events_acked_.assign(kEventUsers, 0);
}

void World::CreateTables() {
  fungusdb::DatabaseOptions options;
  options.num_threads = plan_.num_threads;
  owned_ = std::make_unique<Database>(options);
  db_ = owned_.get();
  fungusdb::TableOptions topt;
  topt.num_shards = plan_.num_shards;
  topt.freeze_after_idle_ticks = plan_.freeze_after_idle_ticks;
  auto must = [&](const fungusdb::Status& st, const char* what) {
    if (!st.ok()) report_.Fail(std::string(what) + ": " + st.ToString());
  };
  must(db_->CreateTable("readings", ReadingsSchema(), topt).status(),
       "create readings");
  Result<size_t> ra = db_->AttachFungus(
      "readings",
      std::make_unique<fungusdb::RetentionFungus>(plan_.readings_retention),
      plan_.period);
  must(ra.status(), "attach retention");
  if (ra.ok()) readings_attachment_ = ra.value();
  fungusdb::CookSpec cook;
  cook.table_name = "readings";
  cook.cellar_name = "readings_by_sensor";
  cook.column = "temp";
  cook.group_by = "sensor";
  must(db_->AddCookSpec(cook), "cook readings");
  if (plan_.clicks_per_step > 0) {
    must(db_->CreateTable("clicks", ClicksSchema(), topt).status(),
         "create clicks");
    fungusdb::EgiFungus::Params egi;
    egi.seeds_per_tick = plan_.egi_seeds_per_tick;
    egi.decay_step = 0.25;
    egi.spread_probability = 0.6;
    egi.age_bias = 2.0;
    egi.rng_seed = args_.seed;
    Result<size_t> ca = db_->AttachFungus(
        "clicks", std::make_unique<fungusdb::EgiFungus>(egi), plan_.period);
    must(ca.status(), "attach egi");
    if (ca.ok()) clicks_attachment_ = ca.value();
    fungusdb::CookSpec c;
    c.table_name = "clicks";
    c.cellar_name = "clicks_by_user";
    c.column = "dwell";
    c.group_by = "user";
    must(db_->AddCookSpec(c), "cook clicks");
  }
  if (plan_.event_ops_per_step > 0) {
    fungusdb::TableOptions eopt;
    eopt.num_shards = 1;
    must(db_->CreateTable("events", EventsSchema(), eopt).status(),
         "create events");
    must(db_->AttachFungus("events",
                           std::make_unique<fungusdb::RetentionFungus>(
                               plan_.events_retention),
                           plan_.period)
             .status(),
         "attach events fungus");
    fungusdb::CookSpec e;
    e.table_name = "events";
    e.cellar_name = "events_by_user";
    e.column = "amount";
    e.group_by = "user";
    must(db_->AddCookSpec(e), "cook events");
  }
}

World::~World() { std::remove(SnapshotPath("base").c_str()); }

void World::Create() {
  const int64_t t0 = NowNs();
  CreateTables();
  // Rows arrive half a period after each tick, so no row's age is ever
  // exactly a multiple of the period at a tick: the retention boundary
  // is never a tie.
  const bool advanced = db_->AdvanceTime(plan_.period / 2).ok();
  program_s_ += (NowNs() - t0) * 1e-9;
  if (!advanced) report_.Fail("advance");
}

void World::RunDays(int n) {
  for (int i = 0; i < n; ++i, ++day_) {
    for (int step = 0; step < kStepsPerDay; ++step) Step(day_, step);
    EndOfDay(day_);
  }
}

void World::RecordState(double snapshot_bytes) {
  const fungusdb::HealthReport h = db_->Health();
  double live = 0;
  for (const auto& t : h.tables) live += static_cast<double>(t.live_rows);
  meter_->cellar_bytes = static_cast<double>(h.cellar_bytes);
  meter_->cellar_entries = static_cast<double>(h.cellar_entries);
  double mem = static_cast<double>(h.cellar_bytes);
  for (const auto& t : h.tables) mem += static_cast<double>(t.memory_bytes);
  meter_->mem_bytes_per_row.Add(mem / std::max(live, 1.0));
  if (snapshot_bytes > 0) {
    meter_->snapshot_bytes_per_row.Add(snapshot_bytes / std::max(live, 1.0));
  }
  meter_->rows_cooked += h.rows_cooked - cooked_seen_;
  cooked_seen_ = h.rows_cooked;
  uint64_t thaws = 0;
  for (const char* name : {"readings", "clicks"}) {
    Result<fungusdb::TableHandle> t = db_->GetTable(name);
    if (t.ok()) thaws += t.value().storage_stats().thaw_count;
  }
  meter_->thaws += thaws - thaws_seen_;
  thaws_seen_ = thaws;
  if (const auto* hist =
          db_->metrics().FindHistogram("fungusdb.parallel.barrier_wait_us")) {
    if (hist->count() > 0) meter_->barrier_wait_us.Add(hist->Mean());
  }
  if (const auto* hist =
          db_->metrics().FindHistogram("fungusdb.query.pin_wait_us")) {
    meter_->pin_wait_p50 = hist->Quantile(0.5);
    meter_->pin_wait_p99 = hist->Quantile(0.99);
  }
}

void World::Step(int day, int step) {
  const int s = (day % plan_.days) * kStepsPerDay + step;
  const uint64_t id = static_cast<uint64_t>(day) * kStepsPerDay + step;
  {
    std::vector<Reading> chunk = reading_chunks_[s];
    std::vector<std::vector<Value>> rows;
    rows.reserve(chunk.size());
    for (Reading& r : chunk) {
      r.ts = db_->Now();
      rows.push_back(ReadingValues(r));
      readings_.Append(r);
    }
    fungusdb::VectorSource source(ReadingsSchema(), std::move(rows));
    Tracer::Scope span(tracer_, "pipeline.ingest.readings", id);
    Result<uint64_t> n = db_->Ingest("readings", source, chunk.size());
    const double us = span.ElapsedUs();
    program_s_ += us * 1e-6;
    if (!n.ok() || n.value() != chunk.size()) {
      report_.Fail("ingest readings");
    }
    report_.CountAttempted(1);
    meter_->ingest_rows_per_s.Add(chunk.size() / (us * 1e-6));
    meter_->ingest_ns_per_row_readings.Add(us * 1e3 / chunk.size());
  }
  if (!click_chunks_.empty()) {
    const std::vector<Click>& chunk = click_chunks_[s];
    std::vector<std::vector<Value>> rows;
    rows.reserve(chunk.size());
    for (const Click& c : chunk) {
      rows.push_back(ClickValues(c));
      ++clicks_generated_[c.user];
    }
    fungusdb::VectorSource source(ClicksSchema(), std::move(rows));
    Tracer::Scope span(tracer_, "pipeline.ingest.clicks", id);
    Result<uint64_t> n = db_->Ingest("clicks", source, chunk.size());
    const double us = span.ElapsedUs();
    program_s_ += us * 1e-6;
    if (!n.ok() || n.value() != chunk.size()) report_.Fail("ingest clicks");
    report_.CountAttempted(1);
    meter_->ingest_rows_per_s.Add(chunk.size() / (us * 1e-6));
    meter_->ingest_ns_per_row_clicks.Add(us * 1e3 / chunk.size());
  }
  for (size_t i = 0; i < plan_.event_ops_per_step; ++i) {
    EventOp(event_ops_++ % events_.size());
  }
  {
    const auto before_r = db_->scheduler().StatsFor(readings_attachment_);
    const auto before_c = db_->scheduler().StatsFor(clicks_attachment_);
    Tracer::Scope span(tracer_, "core.advance_time", id);
    Result<uint64_t> ticks = db_->AdvanceTime(plan_.period);
    const double us = span.ElapsedUs();
    program_s_ += us * 1e-6;
    if (!ticks.ok()) report_.Fail("advance: " + ticks.status().ToString());
    report_.CountAttempted(1);
    meter_->tick_us.Add(us);
    meter_->advance_us.Add(us);
    ++meter_->build_ticks;
    const auto after_r = db_->scheduler().StatsFor(readings_attachment_);
    meter_->ticks_readings += after_r.ticks - before_r.ticks;
    meter_->decay_readings += Minus(after_r.decay, before_r.decay);
    if (!click_chunks_.empty()) {
      const auto after_c = db_->scheduler().StatsFor(clicks_attachment_);
      meter_->ticks_clicks += after_c.ticks - before_c.ticks;
      meter_->decay_clicks += Minus(after_c.decay, before_c.decay);
    }
  }
  if (plan_.read_every > 0 && (s + 1) % plan_.read_every == 0) {
    RunReads((s + 1) / plan_.read_every - 1);
  }
}

void World::EventOp(uint64_t op) {
  const Event& e = events_[op];
  if ((op + 1) % static_cast<uint64_t>(plan_.consume_every) == 0) {
    const std::string sql = "CONSUME SELECT user, amount FROM events WHERE "
                            "user = " +
                            std::to_string(e.user) + " LIMIT 4";
    Tracer::Scope span(tracer_, "core.consume", op);
    Result<ResultSet> rs = db_->ExecuteSql(sql);
    const double us = span.ElapsedUs();
    program_s_ += us * 1e-6;
    if (!rs.ok()) report_.Fail("consume events: " + rs.status().ToString());
    report_.CountAttempted(1);
    meter_->write_us.Add(us);
    meter_->consume_us.Add(us);
    return;
  }
  Tracer::Scope span(tracer_, "core.insert", op);
  Result<fungusdb::RowId> row = db_->Insert("events", EventValues(e));
  const double us = span.ElapsedUs();
  program_s_ += us * 1e-6;
  report_.CountAttempted(1);
  if (!row.ok()) {
    report_.Fail("insert events: " + row.status().ToString());
    return;
  }
  ++events_acked_[e.user];
  meter_->write_us.Add(us);
  meter_->insert_us.Add(us);
}

Result<ResultSet> World::EmbeddedRead(const ReadStmt& stmt, uint64_t id) {
  Tracer::Scope outer(tracer_, "stmt", id);
  Result<ResultSet> rs = [&] {
    Tracer::Scope span(tracer_, "core.execute_sql", id);
    Result<ResultSet> r = db_->ExecuteSql(stmt.sql);
    const double us = span.ElapsedUs();
    program_s_ += us * 1e-6;
    meter_->read_us.Add(us);
    meter_->read_busy_s += us * 1e-6;
    if (IsAnalytic(stmt.cls)) meter_->analytic_us.Add(us);
    return r;
  }();
  report_.CountAttempted(1);
  if (tracer_.enabled()) {
    if (!session_) session_ = std::make_unique<fungusdb::Session>(db_);
    ReplayRead(*session_, stmt, id, tracer_, *meter_);
  }
  return rs;
}

bool World::MaybePerturb(ReadClass cls, ResultSet& rs) {
  if (perturbed_) return false;
  perturbed_ = PerturbAnswer(args_.perturb, cls, rs);
  return perturbed_;
}

void World::RunReads(int point) {
  const size_t first =
      readings_.FirstAlive(LastTick(db_->Now()), plan_.readings_retention);
  uint64_t id = (static_cast<uint64_t>(day_) << 20) + point * 16;
  for (const ReadStmt& issued : read_points_[point]) {
    const ReadStmt stmt = ReadAt(issued, db_->Now());
    Result<ResultSet> rs = EmbeddedRead(stmt, id++);
    if (!rs.ok()) {
      report_.Fail(stmt.sql + ": " + rs.status().ToString());
      continue;
    }
    MaybePerturb(stmt.cls, rs.value());
    const std::string err = readings_.Check(stmt, rs.value(), first);
    if (!err.empty()) report_.Fail(stmt.sql + ": " + err);
  }
  if (click_chunks_.empty()) return;
  // Clicks per user: the EGI table, checked against what was generated.
  ReadStmt clicks;
  clicks.cls = ReadClass::kGroup;
  clicks.sql = kClicksByUser;
  Result<ResultSet> rs = EmbeddedRead(clicks, id);
  if (!rs.ok()) {
    report_.Fail(std::string(kClicksByUser) + ": " + rs.status().ToString());
    return;
  }
  for (const auto& row : rs.value().rows) {
    const int64_t user = row[0].AsInt64();
    if (user < 0 || user >= kUsers ||
        CellNumber(row[1]) > static_cast<double>(clicks_generated_[user])) {
      report_.Fail("clicks: user " + std::to_string(user) +
                   " has more live rows than were generated");
      return;
    }
  }
}

void World::EndOfDay(int day) {
  if (!click_chunks_.empty()) {
    // Law 2: one consuming query a day takes a user's live clicks.
    const std::string sql = "CONSUME SELECT user, page FROM clicks WHERE "
                            "user = " +
                            std::to_string(consume_users_[day % plan_.days]);
    Tracer::Scope span(tracer_, "core.consume", static_cast<uint64_t>(day));
    Result<ResultSet> rs = db_->ExecuteSql(sql);
    const double us = span.ElapsedUs();
    program_s_ += us * 1e-6;
    report_.CountAttempted(1);
    if (!rs.ok()) report_.Fail("consume clicks: " + rs.status().ToString());
    meter_->write_us.Add(us);
    meter_->consume_us.Add(us);
  }
  SampleStorage();
  if (plan_.read_every > 0) CheckConservation(*db_, "live database");
  if (day == plan_.base_day) {
    Tracer::Scope span(tracer_, "persist.save_base", static_cast<uint64_t>(day));
    const fungusdb::Status st =
        fungusdb::SaveDatabaseSnapshot(*db_, SnapshotPath("base"));
    const double us = span.ElapsedUs();
    program_s_ += us * 1e-6;
    meter_->save_ms.Add(us * 1e-3);
    report_.CountAttempted(1);
    if (!st.ok()) report_.Fail("save base snapshot: " + st.ToString());
  }
}

std::string World::SnapshotPath(const std::string& kind) const {
  return args_.work_dir + "/" + args_.workload + "-" +
         std::to_string(::getpid()) + "-" + kind + ".fgdb";
}

void World::SampleStorage() {
  uint64_t frozen = 0, total = 0, encoded = 0, plain = 0;
  for (const char* name : {"readings", "clicks"}) {
    Result<fungusdb::TableHandle> t = db_->GetTable(name);
    if (!t.ok()) continue;
    const fungusdb::StorageStats st = t.value().storage_stats();
    frozen += st.frozen_segments;
    total += st.total_segments;
    encoded += st.encoded_bytes;
    plain += st.plain_bytes_before;
    const double per_seg =
        t.value().num_segments() == 0
            ? 0.0
            : static_cast<double>(t.value().live_rows()) /
                  static_cast<double>(t.value().num_segments());
    (std::string(name) == "readings" ? meter_->live_per_segment_readings
                                     : meter_->live_per_segment_clicks)
        .Add(per_seg);
  }
  if (total > 0) {
    meter_->frozen_frac.Add(static_cast<double>(frozen) /
                           static_cast<double>(total));
  }
  if (plain > 0) {
    meter_->freeze_ratio.Add(static_cast<double>(encoded) /
                            static_cast<double>(plain));
  }
}

void World::Fsck(Database& db, const std::string& what) {
  const fungusdb::verify::Report r = db.Fsck();
  if (!r.ok()) {
    report_.Fail("fsck of " + what + ": " + r.violations[0].ToString());
  }
}

void World::CheckConservation(Database& db, const std::string& what) {
  // readings: live per sensor must be what retention leaves, and live
  // plus cooked must be everything generated.
  Result<ResultSet> live = db.ExecuteSql(
      "SELECT sensor, count(*) AS n FROM readings GROUP BY sensor "
      "ORDER BY sensor");
  if (!live.ok()) {
    report_.Fail(what + ": " + live.status().ToString());
    return;
  }
  std::map<std::string, uint64_t> live_by_key;
  for (const auto& row : live.value().rows) {
    live_by_key[KeyString(row[0])] = static_cast<uint64_t>(row[1].AsInt64());
  }
  if (args_.perturb == Perturb::kConservation && !live_by_key.empty()) {
    --live_by_key.begin()->second;  // one row dropped from the tally
  }
  const std::map<std::string, uint64_t> cooked =
      CookedCounts(db, "readings_by_sensor");
  const std::vector<uint64_t> want_live = readings_.LivePerSensor(
      readings_.FirstAlive(LastTick(db.Now()), plan_.readings_retention));
  const std::vector<uint64_t> generated = readings_.GeneratedPerSensor();
  for (int s = 0; s < kSensors; ++s) {
    const std::string key = SensorName(s);
    const uint64_t l = live_by_key.count(key) ? live_by_key[key] : 0;
    const uint64_t c = cooked.count(key) ? cooked.at(key) : 0;
    if (l != want_live[s]) {
      report_.Fail(what + ": sensor " + key + " has " + std::to_string(l) +
                   " live rows, retention leaves " +
                   std::to_string(want_live[s]));
      return;
    }
    if (l + c != generated[s]) {
      report_.Fail(what + ": sensor " + key + " live " + std::to_string(l) +
                   " + cooked " + std::to_string(c) + " != generated " +
                   std::to_string(generated[s]));
      return;
    }
  }
  auto check_users = [&](const char* sql, const char* entry,
                         const std::vector<uint64_t>& want, const char* table,
                         bool drop_one) {
    Result<ResultSet> rs = db.ExecuteSql(sql);
    if (!rs.ok()) {
      report_.Fail(what + ": " + rs.status().ToString());
      return;
    }
    std::map<std::string, uint64_t> by_user;
    for (const auto& row : rs.value().rows) {
      by_user[KeyString(row[0])] = static_cast<uint64_t>(row[1].AsInt64());
    }
    if (drop_one && !by_user.empty()) --by_user.begin()->second;
    const std::map<std::string, uint64_t> cooked_users =
        CookedCounts(db, entry);
    for (size_t u = 0; u < want.size(); ++u) {
      const std::string key = std::to_string(u);
      const uint64_t l = by_user.count(key) ? by_user[key] : 0;
      const uint64_t c =
          cooked_users.count(key) ? cooked_users.at(key) : 0;
      if (l + c != want[u]) {
        report_.Fail(what + ": " + table + " user " + key + " live " +
                     std::to_string(l) + " + cooked " + std::to_string(c) +
                     " != " + std::to_string(want[u]));
        return;
      }
    }
  };
  if (!click_chunks_.empty()) {
    check_users(kClicksByUser, "clicks_by_user", clicks_generated_,
                "clicks", false);
  }
  if (plan_.event_ops_per_step > 0) {
    check_users(
        "SELECT user, count(*) AS n FROM events GROUP BY user ORDER BY user",
        "events_by_user", events_acked_, "events",
        args_.perturb == Perturb::kEventConservation);
  }
}

void World::Checkpoint() {
  const std::string inc = SnapshotPath("inc");
  const std::string base = SnapshotPath("base");
  const uint64_t id = 1u << 20;
  CheckConservation(*db_, "live database");
  Fsck(*db_, "live database");
  // The checkpoint statements answer on the live database first (and
  // are checked against the oracle), then on every reloaded copy.
  const size_t first =
      readings_.FirstAlive(LastTick(db_->Now()), plan_.readings_retention);
  std::vector<ResultSet> live_answers;
  std::vector<ReadStmt> stmts;
  for (const ReadStmt& s : checkpoint_stmts_) {
    stmts.push_back(ReadAt(s, db_->Now()));
  }
  for (const ReadStmt& stmt : stmts) {
    Result<ResultSet> rs = db_->ExecuteSql(stmt.sql);
    if (!rs.ok()) {
      report_.Fail(stmt.sql + ": " + rs.status().ToString());
      return;
    }
    const std::string err = readings_.Check(stmt, rs.value(), first);
    if (!err.empty()) report_.Fail("live " + stmt.sql + ": " + err);
    live_answers.push_back(std::move(rs).value());
  }
  // Every save writes a new file. Rewriting one file in place makes a
  // save wait whenever the kernel is writing the previous version's pages
  // back to the shared disk (saves then took 1.4 to 16 ms within one
  // run); the old files are deleted after the saves, untimed.
  std::vector<std::string> saved;
  for (int i = 0; i < plan_.snapshot_saves; ++i) {
    saved.push_back(SnapshotPath("full" + std::to_string(i)));
    Tracer::Scope span(tracer_, "persist.save", id + i);
    const fungusdb::Status st =
        fungusdb::SaveDatabaseSnapshot(*db_, saved.back());
    const double us = span.ElapsedUs();
    program_s_ += us * 1e-6;
    meter_->save_ms.Add(us * 1e-3);
    report_.CountAttempted(1);
    if (!st.ok()) report_.Fail("save snapshot: " + st.ToString());
  }
  const std::string full = saved.back();
  saved.pop_back();
  for (const std::string& old : saved) std::remove(old.c_str());
  const double snapshot_bytes = FileBytes(full);
  for (int i = 0; i < plan_.snapshot_loads; ++i) {
    Result<std::unique_ptr<Database>> loaded = [&] {
      Tracer::Scope span(tracer_, "persist.load", id + i);
      Result<std::unique_ptr<Database>> l =
          fungusdb::LoadDatabaseSnapshot(full);
      const double us = span.ElapsedUs();
      program_s_ += us * 1e-6;
      meter_->load_ms.Add(us * 1e-3);
      return l;
    }();
    report_.CountAttempted(1);
    if (!loaded.ok()) {
      report_.Fail("load snapshot: " + loaded.status().ToString());
      continue;
    }
    Database& copy = *loaded.value();
    CheckConservation(copy, "reloaded snapshot");
    Fsck(copy, "reloaded snapshot");
    for (size_t k = 0; k < stmts.size(); ++k) {
      Result<ResultSet> rs = copy.ExecuteSql(stmts[k].sql);
      if (!rs.ok()) {
        report_.Fail("reloaded: " + rs.status().ToString());
        continue;
      }
      const std::string err = CompareResults(live_answers[k], rs.value());
      if (!err.empty()) {
        report_.Fail("reloaded snapshot answers " + stmts[k].sql +
                     " differently: " + err);
      }
    }
  }
  if (FileBytes(base) > 0) {
    Tracer::Scope span(tracer_, "persist.save_incremental", id);
    Result<fungusdb::IncrementalSnapshotStats> st =
        fungusdb::SaveIncrementalSnapshot(*db_, inc, base);
    const double us = span.ElapsedUs();
    program_s_ += us * 1e-6;
    meter_->incremental_ms.Add(us * 1e-3);
    report_.CountAttempted(1);
    if (!st.ok()) {
      report_.Fail("incremental snapshot: " + st.status().ToString());
    } else {
      meter_->blocks_reused += st.value().frozen_blocks_reused;
      meter_->blocks_total +=
          st.value().frozen_blocks_reused + st.value().frozen_blocks_rewritten;
    }
  }
  if (tracer_.enabled()) {
    fungusdb::BufferWriter out;
    {
      Tracer::Scope span(tracer_, "persist.serialize", id);
      fungusdb::SerializeDatabase(*db_, out);
      meter_->serialize_ms.Add(span.ElapsedUs() * 1e-3);
    }
    Tracer::Scope span(tracer_, "persist.deserialize", id);
    fungusdb::BufferReader in(out.buffer());
    Result<std::unique_ptr<Database>> back = fungusdb::DeserializeDatabase(in);
    meter_->deserialize_ms.Add(span.ElapsedUs() * 1e-3);
    if (!back.ok()) report_.Fail("deserialize: " + back.status().ToString());
  }
  if (plan_.base_day < 0) {
    std::rename(full.c_str(), base.c_str());
  } else {
    std::remove(full.c_str());
  }
  std::remove(inc.c_str());
  RecordState(snapshot_bytes);
}

double WriteRate(const Samples& write_us) {
  return write_us.MedianBlockRate(64);
}

void ReportBuildMetrics(const Meter& m, Report& report) {
  report.Latency("tick", m.tick_us, "us");
  report.Metric("ingest_rows_per_s", m.ingest_rows_per_s.Median(), "rows/s",
                m.ingest_rows_per_s.size());
  report.Metric("snapshot_save_ms", m.save_ms.Median(), "ms",
                m.save_ms.size());
  report.Metric("snapshot_load_ms", m.load_ms.Median(), "ms",
                m.load_ms.size());
  report.Metric("mem_bytes_per_live_row", m.mem_bytes_per_row.Mean(), "B",
                m.mem_bytes_per_row.size());
  report.Metric("snapshot_bytes_per_live_row",
                m.snapshot_bytes_per_row.Mean(), "B",
                m.snapshot_bytes_per_row.size());
}

void ReportLayerMetrics(const Meter& m, Report& report) {
  report.Layer("query.parse_us", m.parse_us.Median(), "us",
                m.parse_us.size());
  for (int c = 0; c < kNumReadClasses; ++c) {
    report.Layer(std::string("query.exec_us.") +
                      ClassName(static_cast<ReadClass>(c)),
                  m.exec_us[c].Median(), "us", m.exec_us[c].size());
  }
  report.Layer("query.rows_scanned_per_match",
                m.rows_matched == 0
                    ? 0.0
                    : static_cast<double>(m.rows_scanned) /
                          static_cast<double>(m.rows_matched),
                "ratio");
  const uint64_t segs = m.segments_pruned + m.segments_scanned;
  report.Layer("query.segments_pruned_frac",
                segs == 0 ? 0.0
                          : static_cast<double>(m.segments_pruned) /
                                static_cast<double>(segs),
                "ratio");
  report.Layer("query.serialize_us", m.serde_us.Median(), "us",
                m.serde_us.size());
  report.Layer("query.result_bytes", m.result_bytes.Mean(), "B",
                m.result_bytes.size());
  report.Layer("server.transport_us.read", m.transport_read_us.Median(),
                "us", m.transport_read_us.size());
  report.Layer("server.transport_us.write", m.transport_write_us,
                "us");
  report.Layer("server.queue_wait_us.p50", m.queue_wait_p50, "us");
  report.Layer("server.queue_wait_us.p99", m.queue_wait_p99, "us");
  report.Layer("core.pin_wait_us.p50", m.pin_wait_p50, "us");
  report.Layer("core.pin_wait_us.p99", m.pin_wait_p99, "us");
  report.Layer("core.insert_us", m.insert_us.Median(), "us",
                m.insert_us.size());
  report.Layer("core.consume_us", m.consume_us.Median(), "us",
                m.consume_us.size());
  report.Layer("core.advance_us", m.advance_us.Median(), "us",
                m.advance_us.size());
  const uint64_t tr = m.ticks_readings;
  const uint64_t tc = m.ticks_clicks;
  report.Layer("fungus.rows_touched_per_tick.retention",
                PerTick(m.decay_readings.tuples_touched, tr), "rows");
  report.Layer("fungus.rows_touched_per_tick.egi",
                PerTick(m.decay_clicks.tuples_touched, tc), "rows");
  report.Layer("fungus.rows_killed_per_tick.retention",
                PerTick(m.decay_readings.tuples_killed, tr), "rows");
  report.Layer("fungus.rows_killed_per_tick.egi",
                PerTick(m.decay_clicks.tuples_killed, tc), "rows");
  report.Layer("fungus.seeds_planted_per_tick",
                PerTick(m.decay_clicks.seeds_planted, tc), "count");
  report.Layer("fungus.segments_folded_per_tick",
                PerTick(m.decay_readings.segments_folded +
                            m.decay_clicks.segments_folded,
                        tr + tc),
                "count");
  report.Layer("fungus.segments_skipped_per_tick",
                PerTick(m.decay_readings.segments_skipped +
                            m.decay_clicks.segments_skipped,
                        tr + tc),
                "count");
  report.Layer("fungus.rows_materialized_per_tick",
                PerTick(m.decay_readings.rows_materialized +
                            m.decay_clicks.rows_materialized,
                        tr + tc),
                "rows");
  report.Layer("fungus.barrier_wait_us", m.barrier_wait_us.Median(), "us",
                m.barrier_wait_us.size());
  report.Layer("pipeline.ingest_ns_per_row.readings",
                m.ingest_ns_per_row_readings.Median(), "ns",
                m.ingest_ns_per_row_readings.size());
  report.Layer("pipeline.ingest_ns_per_row.clicks",
                m.ingest_ns_per_row_clicks.Median(), "ns",
                m.ingest_ns_per_row_clicks.size());
  report.Layer("pipeline.rows_cooked_per_tick",
                PerTick(m.rows_cooked, m.build_ticks), "rows");
  report.Layer("storage.frozen_segments_frac", m.frozen_frac.Mean(), "ratio",
                m.frozen_frac.size());
  report.Layer("storage.freeze_ratio", m.freeze_ratio.Mean(), "ratio",
                m.freeze_ratio.size());
  report.Layer("storage.live_rows_per_segment.readings",
                m.live_per_segment_readings.Mean(), "rows",
                m.live_per_segment_readings.size());
  report.Layer("storage.live_rows_per_segment.clicks",
                m.live_per_segment_clicks.Mean(), "rows",
                m.live_per_segment_clicks.size());
  report.Layer("storage.thaws", PerTick(m.thaws, m.build_ticks), "count");
  report.Layer("summary.cellar_bytes", m.cellar_bytes, "B");
  report.Layer("summary.cellar_entries", m.cellar_entries, "count");
  report.Layer("persist.serialize_ms", m.serialize_ms.Median(), "ms",
                m.serialize_ms.size());
  report.Layer("persist.deserialize_ms", m.deserialize_ms.Median(), "ms",
                m.deserialize_ms.size());
  report.Layer("persist.incremental_save_ms", m.incremental_ms.Median(), "ms",
                m.incremental_ms.size());
  report.Layer("persist.frozen_blocks_reused_frac",
                m.blocks_total == 0
                    ? 0.0
                    : static_cast<double>(m.blocks_reused) /
                          static_cast<double>(m.blocks_total),
                "ratio");
}

}  // namespace fungusbench
