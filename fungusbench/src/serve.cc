// serve_read: an in-process fungusd server on loopback, driven by
// closed-loop server::Client connections (each sends its next statement
// only after the previous reply, as every fungusd client does).
//
// A run is a few rounds. Each round sets up a fresh database (the
// readings table built over several virtual days and checkpointed) and
// starts the server; then a loader appends the table's hot tail, one
// Database::Insert per row (the write phase), the clients read for an
// equal share of the run's time (the read phase) and every answer is
// checked. Spreading the set-ups over the run keeps
// the set-up figures (ticks, ingest, snapshots, inserts) from hanging on
// the machine's state in one moment.

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "fungusdb/client.h"
#include "server/server.h"
#include "workloads.h"
#include "world.h"

namespace fungusbench {

using fungusdb::Database;
using fungusdb::Result;

namespace {

struct ServeSizes {
  Plan plan;
  int rounds = 4;
  size_t tail_rows = 2000;  // rows inserted one by one after the build
};

ServeSizes SizesFor(const Args& args) {
  ServeSizes s;
  s.plan.base_day = s.plan.days - 2;
  s.plan.snapshot_saves = 6;
  s.plan.snapshot_loads = 4;
  if (args.tiny) {
    s.plan.days = 3;
    s.plan.base_day = 1;
    s.plan.readings_per_step = 40;
    s.plan.readings_retention = fungusdb::kDay;
    s.plan.snapshot_saves = 1;
    s.plan.snapshot_loads = 1;
    s.rounds = 2;
    s.tail_rows = 50;
  }
  return s;
}

struct ReaderResult {
  Meter meter;
  /// Every answered read as (pool index, digest of the answer); each
  /// distinct answer is kept once in `answers`.
  std::vector<std::pair<uint32_t, uint64_t>> obs;
  std::map<std::pair<uint32_t, uint64_t>, ResultSet> answers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
};

uint64_t ThreadId(int thread, uint64_t i) {
  return (static_cast<uint64_t>(thread) << 40) | i;
}

class ServeRun {
 public:
  ServeRun(const Args& args, Tracer& tracer, Report& report)
      : args_(args), sizes_(SizesFor(args)), tracer_(tracer),
        report_(report) {}

  int Run();

 private:
  bool SetUp();
  /// Appends the hot tail of readings, one Database::Insert per row on
  /// the served database. A traced run sends every other row over the
  /// wire as `\insert` instead, to time the server's transport for
  /// writes. (A lone lockstep writer's wire round trips are ruled by the
  /// host's thread wake-up latency at the tail, so the untraced write
  /// figures are taken in process.)
  void LoadTail();
  void Serve(int round, double seconds);
  void ReportMetrics();

  const Args& args_;
  const ServeSizes sizes_;
  Tracer& tracer_;
  Report& report_;

  std::unique_ptr<World> world_;
  std::unique_ptr<fungusdb::server::Server> server_;
  std::vector<ReadStmt> pool_;
  Timestamp t0_virtual_ = 0;

  Meter meter_;
  Samples setup_s_;
  Samples write_us_;       // Database::Insert calls of the tail
  Samples wire_insert_us_;  // `\insert` round trips of a traced run
  uint64_t reads_ = 0;
  double serve_s_ = 0;
};

int ServeRun::Run() {
  for (int round = 0; round < sizes_.rounds; ++round) {
    if (!SetUp()) return 1;
    Serve(round, args_.seconds / sizes_.rounds);
    server_.reset();
    world_.reset();
  }
  ReportMetrics();
  return 0;
}

bool ServeRun::SetUp() {
  world_ = std::make_unique<World>(sizes_.plan, args_.seed, args_, tracer_,
                                   meter_, report_);
  world_->Create();
  world_->RunDays(sizes_.plan.days);
  world_->Checkpoint();
  const int64_t t0 = NowNs();
  fungusdb::server::ServerOptions options;
  options.read_workers = kClients;
  server_ = std::make_unique<fungusdb::server::Server>(world_->Release(),
                                                       options);
  const fungusdb::Status st = server_->Start();
  setup_s_.Add(world_->program_s() + (NowNs() - t0) * 1e-9);
  if (!st.ok()) {
    report_.Fail("server start: " + st.ToString());
    return false;
  }
  LoadTail();
  t0_virtual_ = server_->database().Now();
  Rng pool_rng(args_.seed ^ 0x5E7E);
  pool_ = MakeReadPool(pool_rng, 64, t0_virtual_);
  return true;
}

void ServeRun::LoadTail() {
  Database& db = server_->database();
  Rng rng(args_.seed ^ 0x7A11);
  std::vector<Reading> tail = GenerateReadings(rng, sizes_.tail_rows);
  std::unique_ptr<fungusdb::server::Client> client;
  if (tracer_.enabled()) {
    Result<fungusdb::server::Client> c =
        fungusdb::server::Client::Connect("127.0.0.1", server_->port());
    report_.CountAttempted(1);
    if (!c.ok()) {
      report_.CountFailed(1);
      report_.Fail("loader connect: " + c.status().ToString());
      return;
    }
    client = std::make_unique<fungusdb::server::Client>(std::move(c).value());
  }
  for (size_t i = 0; i < tail.size(); ++i) {
    Reading& r = tail[i];
    r.ts = db.Now();
    const uint64_t id = ThreadId(9, i);
    fungusdb::Status status;
    if (client && i % 2 == 1) {
      Tracer::Scope span(tracer_, "client.round_trip", id);
      status = client->ExecuteOne("\\insert readings " + ReadingCsv(r))
                   .status();
      wire_insert_us_.Add(span.ElapsedUs());
    } else {
      Tracer::Scope span(tracer_, "core.insert", id);
      status = db.Insert("readings", ReadingValues(r)).status();
      const double us = span.ElapsedUs();
      write_us_.Add(us);
      meter_.insert_us.Add(us);
    }
    report_.CountAttempted(1);
    if (!status.ok()) {
      report_.CountFailed(1);
      report_.Fail("insert readings: " + status.ToString());
      continue;
    }
    world_->readings().Append(r);
  }
}

void ServeRun::Serve(int round, double seconds) {
  Database& db = server_->database();
  db.metrics().Reset();
  Rng rng(args_.seed ^ (0xC11E47 + round));
  std::vector<std::vector<uint32_t>> sequences;
  for (int r = 0; r < kClients; ++r) {
    sequences.push_back(MakeReadSequence(rng, pool_, 1 << 14));
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  int64_t deadline_ns = 0;
  std::vector<ReaderResult> reader_results(kClients);
  const uint16_t port = server_->port();

  auto reader = [&](int index) {
    ReaderResult& out = reader_results[index];
    Result<fungusdb::server::Client> client =
        fungusdb::server::Client::Connect("127.0.0.1", port);
    std::unique_ptr<fungusdb::Session> session;
    if (tracer_.enabled()) session = std::make_unique<fungusdb::Session>(&db);
    ++ready;
    while (!go.load()) std::this_thread::yield();
    if (!client.ok()) {
      out.failed = out.attempted = 1;
      out.first_error = client.status().ToString();
      return;
    }
    const std::vector<uint32_t>& seq = sequences[index];
    for (uint64_t i = 0; NowNs() < deadline_ns; ++i) {
      const uint32_t idx = seq[i % seq.size()];
      const ReadStmt& stmt = pool_[idx];
      const uint64_t id = ThreadId(index, i);
      Tracer::Scope outer(tracer_, "stmt", id);
      double rtt_us = 0;
      Result<ResultSet> rs = [&] {
        Tracer::Scope span(tracer_, "client.round_trip", id);
        Result<ResultSet> r = client.value().ExecuteOne(stmt.sql);
        rtt_us = span.ElapsedUs();
        return r;
      }();
      ++out.attempted;
      if (!rs.ok()) {
        ++out.failed;
        if (out.first_error.empty()) {
          out.first_error = stmt.sql + ": " + rs.status().ToString();
        }
        continue;
      }
      out.meter.read_us.Add(rtt_us);
      if (IsAnalytic(stmt.cls)) out.meter.analytic_us.Add(rtt_us);
      if (session) {
        // The same statement in process: what is left of the round trip
        // is the server's transport (wire, decode, queue, respond).
        const double inproc =
            ReplayRead(*session, stmt, id, tracer_, out.meter);
        out.meter.transport_read_us.Add(rtt_us - inproc);
      }
      const uint64_t digest = DigestResult(rs.value());
      out.answers.try_emplace({idx, digest}, std::move(rs).value());
      out.obs.emplace_back(idx, digest);
    }
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < kClients; ++r) threads.emplace_back(reader, r);
  while (ready.load() < kClients) std::this_thread::yield();
  const int64_t start_ns = NowNs();
  deadline_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  go.store(true);
  for (std::thread& t : threads) t.join();
  serve_s_ += (NowNs() - start_ns) * 1e-9;

  if (tracer_.enabled()) {
    auto quantiles = [&](const char* name, double& p50, double& p99) {
      if (const auto* h = db.metrics().FindHistogram(name)) {
        p50 = h->Quantile(0.5);
        p99 = h->Quantile(0.99);
      }
    };
    quantiles("fungusdb.server.queue_wait_us", meter_.queue_wait_p50,
              meter_.queue_wait_p99);
    quantiles("fungusdb.query.pin_wait_us", meter_.pin_wait_p50,
              meter_.pin_wait_p99);
  }
  server_->Stop();

  // Nothing writes while the clients read, so every answer must match the
  // state after the build's last tick.
  ReadingsOracle& oracle = world_->readings();
  const size_t first = oracle.FirstAlive(world_->LastTick(t0_virtual_),
                                         sizes_.plan.readings_retention);
  for (ReaderResult& r : reader_results) {
    report_.CountAttempted(r.attempted);
    report_.CountFailed(r.failed);
    if (!r.first_error.empty()) report_.Fail("read failed: " + r.first_error);
    reads_ += r.attempted - r.failed;
    MergeQueryMeter(meter_, r.meter);
    for (auto& [key, answer] : r.answers) {
      world_->MaybePerturb(pool_[key.first].cls, answer);
      const std::string err = oracle.Check(pool_[key.first], answer, first);
      if (!err.empty()) {
        report_.Fail(pool_[key.first].sql + ": " + err);
        break;
      }
    }
  }
  world_->CheckConservation(db, "database after serving");
  world_->Fsck(db, "database after serving");
}

void ServeRun::ReportMetrics() {
  report_.Metric("setup_s", setup_s_.Median(), "s", setup_s_.size());
  report_.Metric("read_stmts_per_s", reads_ / serve_s_, "stmt/s", reads_);
  report_.Latency("read", meter_.read_us, "us");
  report_.Metric("analytic_p50_us", meter_.analytic_us.Median(), "us",
                 meter_.analytic_us.size());
  report_.Metric("write_stmts_per_s", WriteRate(write_us_), "stmt/s",
                 write_us_.size());
  report_.Latency("write", write_us_, "us");
  ReportBuildMetrics(meter_, report_);
  if (!tracer_.enabled()) return;
  meter_.transport_write_us =
      wire_insert_us_.Median() - meter_.insert_us.Median();
  ReportLayerMetrics(meter_, report_);
}

}  // namespace

int RunServeRead(const Args& args, Tracer& tracer, Report& report) {
  ServeRun run(args, tracer, report);
  return run.Run();
}

}  // namespace fungusbench
