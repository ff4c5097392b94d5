// rot_cycle: an embedded Database, no server, run over many virtual
// days. Each day's IoT and clickstream batches arrive one tick period at
// a time; the clock advances one period per AdvanceTime call; a writer
// inserts single events (every 16th operation a CONSUME); an analytic
// read set runs every few periods and one CONSUME takes a user's clicks
// each day. Set-up warms the database past the retention horizon; the
// timed part runs rounds of two days, each ending with snapshot saves,
// reloads and an incremental save, until the run's time is used.

#include <iostream>
#include <memory>

#include "workloads.h"
#include "world.h"

namespace fungusbench {

namespace {

Plan RotPlan(const Args& args) {
  Plan p;
  p.days = 7;
  p.readings_per_step = 100;
  p.readings_retention = 2 * fungusdb::kDay;
  p.clicks_per_step = 100;
  p.egi_seeds_per_tick = 2.0;
  p.event_ops_per_step = 4;
  p.read_every = 8;
  p.snapshot_saves = 4;
  p.snapshot_loads = 3;
  if (args.tiny) {
    p.days = 3;
    p.readings_per_step = 20;
    p.clicks_per_step = 20;
    p.readings_retention = fungusdb::kDay;
    p.snapshot_saves = 1;
    p.snapshot_loads = 1;
  }
  return p;
}

/// Set-ups per run; the last one is kept and `setup_s` is their median.
constexpr int kSetups = 7;
/// Days before timing starts: past the readings retention, so the table
/// has reached its steady size.
constexpr int kWarmupDays = 3;
/// Days per round; each round ends with a checkpoint.
constexpr int kRoundDays = 2;

}  // namespace

int RunRotCycle(const Args& args, Tracer& tracer, Report& report) {
  const Plan plan = RotPlan(args);
  Meter meter;
  Meter warmup;
  Samples setup_s;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    world = std::make_unique<World>(plan, args.seed, args, tracer, warmup,
                                    report);
    world->Create();
    world->RunDays(kWarmupDays);
    world->RecordState();
    setup_s.Add(world->program_s());
  }
  world->set_meter(meter);
  const int64_t deadline_ns =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  int rounds = 0;
  // Whole rounds only, so every run attempts the same operations a
  // whole number of times.
  do {
    world->RunDays(kRoundDays);
    world->Checkpoint();
    ++rounds;
  } while (NowNs() < deadline_ns && report.correct());
  std::cout << "rot_cycle: " << rounds << " rounds of " << kRoundDays
            << " days\n";

  report.Metric("setup_s", setup_s.Median(), "s", setup_s.size());
  report.Metric("read_stmts_per_s",
                meter.read_busy_s > 0 ? meter.read_us.size() / meter.read_busy_s
                                      : 0.0,
                "stmt/s", meter.read_us.size());
  report.Latency("read", meter.read_us, "us");
  report.Metric("analytic_p50_us", meter.analytic_us.Median(), "us",
                meter.analytic_us.size());
  report.Metric("write_stmts_per_s", WriteRate(meter.write_us), "stmt/s",
                meter.write_us.size());
  report.Latency("write", meter.write_us, "us");
  ReportBuildMetrics(meter, report);
  if (tracer.enabled()) ReportLayerMetrics(meter, report);
  return 0;
}

}  // namespace fungusbench
