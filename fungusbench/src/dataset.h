// Inputs of the benchmark and the oracle that checks the program's
// answers. Everything here is generated from the run's seed before any
// timing starts; the program sees only the generated rows and
// statements.

#ifndef FUNGUSBENCH_DATASET_H_
#define FUNGUSBENCH_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "fungusdb/database.h"

namespace fungusbench {

using fungusdb::Duration;
using fungusdb::ResultSet;
using fungusdb::Timestamp;
using fungusdb::Value;

constexpr int kSensors = 64;
constexpr int kRegions = 8;
constexpr int kUsers = 500;
constexpr int kEventUsers = 100;

std::string SensorName(int sensor);
std::string RegionName(int region);
inline int RegionOf(int sensor) { return sensor % kRegions; }

// --- readings: an IoT table decayed by retention. ---

struct Reading {
  Timestamp ts = 0;  // insertion time, stamped when the row is ingested
  int sensor = 0;
  double temp = 0;
  double hum = 0;
};
fungusdb::Schema ReadingsSchema();
std::vector<Reading> GenerateReadings(Rng& rng, size_t n);
std::vector<Value> ReadingValues(const Reading& r);
/// The CSV fields of a `\insert readings` line (exact double round trip).
std::string ReadingCsv(const Reading& r);

// --- clicks: a clickstream decayed by EGI. ---

struct Click {
  int64_t user = 0;
  int page = 0;
  double dwell = 0;
};
fungusdb::Schema ClicksSchema();
std::vector<Click> GenerateClicks(Rng& rng, size_t n);
std::vector<Value> ClickValues(const Click& c);

// --- events: single-row inserts and CONSUMEs of an embedded writer. ---

struct Event {
  int64_t user = 0;
  int kind = 0;
  double amount = 0;
};
fungusdb::Schema EventsSchema();
Event GenerateEvent(Rng& rng);
std::vector<Value> EventValues(const Event& e);

// --- the read mix over readings. ---

enum class ReadClass { kLookup, kRange, kAgg, kGroup, kTopk };
constexpr int kNumReadClasses = 5;
const char* ClassName(ReadClass c);
/// The agg and group classes: full-table analytics.
inline bool IsAnalytic(ReadClass c) {
  return c == ReadClass::kAgg || c == ReadClass::kGroup;
}

struct ReadStmt {
  ReadClass cls = ReadClass::kLookup;
  std::string sql;
  int sensor = 0;      // lookup
  Timestamp from = 0;  // lookup: __ts >= from
  Duration lookback = 0;  // lookup: from = now - lookback
  double lo = 0;       // range: lo <= temp < hi
  double hi = 0;
  int region = 0;      // topk
  int variant = 0;     // agg / group column choice, topk direction
};

/// Class weights by statement count: the cheap classes dominate.
inline constexpr int kClassWeight[kNumReadClasses] = {40, 25, 10, 10, 15};

/// `per_class` statements of each class; lookups look back from `now`.
std::vector<ReadStmt> MakeReadPool(Rng& rng, size_t per_class,
                                   Timestamp now);
/// The same statement issued at virtual time `now` (lookups look back
/// from it; other classes do not depend on the time).
ReadStmt ReadAt(const ReadStmt& stmt, Timestamp now);
/// `n` pool indices drawn by class weight.
std::vector<uint32_t> MakeReadSequence(Rng& rng,
                                       const std::vector<ReadStmt>& pool,
                                       size_t n);

/// The generation log of readings, in insertion order, and the answers
/// the retention rule implies. Retention kills a row at the first tick
/// whose time is at least `retention` after the row's insertion time, so
/// after a tick at time T the live rows are exactly those inserted after
/// T - retention: a suffix of the log.
class ReadingsOracle {
 public:
  void Append(const Reading& r) { rows_.push_back(r); }

  /// Index of the first live row after the latest tick at `tick_time`.
  size_t FirstAlive(Timestamp tick_time, Duration retention) const;

  /// Checks one answer of `stmt` against the live rows [first, end).
  /// Returns an empty string when it matches, else what differs.
  std::string Check(const ReadStmt& stmt, const ResultSet& rs,
                    size_t first) const;

  /// Live rows per sensor.
  std::vector<uint64_t> LivePerSensor(size_t first) const;
  /// Generated rows per sensor.
  std::vector<uint64_t> GeneratedPerSensor() const;

 private:
  std::vector<Reading> rows_;
};

/// A cheap digest of a result, to recognise repeated answers without
/// storing them.
uint64_t DigestResult(const ResultSet& rs);

/// Compares two results cell by cell, doubles to a relative 1e-9.
/// Returns an empty string when they agree.
std::string CompareResults(const ResultSet& a, const ResultSet& b);

/// Numeric cell as double (int64, float64 or timestamp).
double CellNumber(const Value& v);

/// Deliberately corrupts an answer for the self-test: adds one to the
/// first count (kCount) or drops the first group row (kGroupKey).
/// Returns true when it changed `rs`.
bool PerturbAnswer(Perturb perturb, ReadClass cls, ResultSet& rs);

}  // namespace fungusbench

#endif  // FUNGUSBENCH_DATASET_H_
