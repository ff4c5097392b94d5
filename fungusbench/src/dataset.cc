#include "dataset.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

namespace fungusbench {

using fungusdb::DataType;
using fungusdb::Schema;

std::string SensorName(int sensor) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "s%03d", sensor);
  return buf;
}

std::string RegionName(int region) { return "r" + std::to_string(region); }

namespace {

Schema MustParse(const char* spec) {
  fungusdb::Result<Schema> s = Schema::Parse(spec);
  if (!s.ok()) std::abort();
  return std::move(s).value();
}

std::string Double17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Schema ReadingsSchema() {
  return MustParse("(sensor string, region string, temp float64, "
                   "hum float64)");
}

std::vector<Reading> GenerateReadings(Rng& rng, size_t n) {
  std::vector<Reading> out(n);
  for (Reading& r : out) {
    r.sensor = static_cast<int>(rng.Below(kSensors));
    // Each sensor has its own climate; noise keeps values distinct.
    const double base = -5.0 + 35.0 * (r.sensor * 37 % kSensors) / kSensors;
    r.temp = base + rng.Uniform(-10.0, 10.0);
    r.hum = rng.Uniform(0.0, 100.0);
  }
  return out;
}

std::vector<Value> ReadingValues(const Reading& r) {
  return {Value::String(SensorName(r.sensor)),
          Value::String(RegionName(RegionOf(r.sensor))),
          Value::Float64(r.temp), Value::Float64(r.hum)};
}

std::string ReadingCsv(const Reading& r) {
  return SensorName(r.sensor) + "," + RegionName(RegionOf(r.sensor)) + "," +
         Double17(r.temp) + "," + Double17(r.hum);
}

Schema ClicksSchema() {
  return MustParse("(user int64, page string, dwell float64)");
}

std::vector<Click> GenerateClicks(Rng& rng, size_t n) {
  std::vector<Click> out(n);
  for (Click& c : out) {
    // Skewed users: a few heavy clickers, a long tail.
    const double u = rng.Uniform();
    c.user = static_cast<int64_t>(kUsers * u * u);
    c.page = static_cast<int>(rng.Below(50));
    c.dwell = rng.Uniform(0.1, 120.0);
  }
  return out;
}

std::vector<Value> ClickValues(const Click& c) {
  char page[8];
  std::snprintf(page, sizeof(page), "p%02d", c.page);
  return {Value::Int64(c.user), Value::String(page), Value::Float64(c.dwell)};
}

Schema EventsSchema() {
  return MustParse("(user int64, kind string, amount float64)");
}

Event GenerateEvent(Rng& rng) {
  Event e;
  e.user = static_cast<int64_t>(rng.Below(kEventUsers));
  e.kind = static_cast<int>(rng.Below(4));
  e.amount = rng.Uniform(1.0, 500.0);
  return e;
}

namespace {
const char* const kKinds[] = {"view", "cart", "buy", "refund"};
}  // namespace

std::vector<Value> EventValues(const Event& e) {
  return {Value::Int64(e.user), Value::String(kKinds[e.kind]),
          Value::Float64(e.amount)};
}


const char* ClassName(ReadClass c) {
  switch (c) {
    case ReadClass::kLookup:
      return "lookup";
    case ReadClass::kRange:
      return "range";
    case ReadClass::kAgg:
      return "agg";
    case ReadClass::kGroup:
      return "group";
    case ReadClass::kTopk:
      return "topk";
  }
  return "?";
}

std::vector<ReadStmt> MakeReadPool(Rng& rng, size_t per_class,
                                   Timestamp now) {
  std::vector<ReadStmt> pool;
  for (int c = 0; c < kNumReadClasses; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      ReadStmt s;
      s.cls = static_cast<ReadClass>(c);
      s.variant = static_cast<int>(i % 2);
      switch (s.cls) {
        case ReadClass::kLookup:
          s.sensor = static_cast<int>(rng.Below(kSensors));
          // A recent window of 30 minutes to 6 hours.
          s.lookback = fungusdb::kMinute * (30 + rng.Below(331));
          s = ReadAt(s, now);
          break;
        case ReadClass::kRange: {
          // Quarter-degree bounds print and parse exactly.
          s.lo = 0.25 * static_cast<double>(rng.Below(160)) - 10.0;
          s.hi = s.lo + 0.5 * static_cast<double>(1 + rng.Below(8));
          s.sql = "SELECT count(*) AS n FROM readings WHERE temp >= " +
                  Double17(s.lo) + " AND temp < " + Double17(s.hi);
          break;
        }
        case ReadClass::kAgg:
          s.sql = s.variant == 0
                      ? "SELECT count(*) AS n, avg(temp) AS a, max(temp) AS "
                        "m, min(hum) AS h FROM readings"
                      : "SELECT count(*) AS n, avg(hum) AS a, max(hum) AS "
                        "m, min(temp) AS h FROM readings";
          break;
        case ReadClass::kGroup:
          s.sql = s.variant == 0
                      ? "SELECT sensor, count(*) AS n, max(temp) AS m FROM "
                        "readings GROUP BY sensor ORDER BY sensor"
                      : "SELECT region, count(*) AS n, avg(hum) AS m FROM "
                        "readings GROUP BY region ORDER BY region";
          break;
        case ReadClass::kTopk:
          s.region = static_cast<int>(rng.Below(kRegions));
          s.sql = "SELECT sensor, temp, __ts FROM readings WHERE region = '" +
                  RegionName(s.region) + "' ORDER BY temp " +
                  (s.variant == 0 ? "DESC" : "ASC") + " LIMIT 10";
          break;
      }
      pool.push_back(std::move(s));
    }
  }
  return pool;
}

ReadStmt ReadAt(const ReadStmt& stmt, Timestamp now) {
  if (stmt.cls != ReadClass::kLookup) return stmt;
  ReadStmt s = stmt;
  s.from = now - s.lookback;
  s.sql = "SELECT __ts, temp, __freshness FROM readings WHERE sensor = '" +
          SensorName(s.sensor) + "' AND __ts >= " + std::to_string(s.from);
  return s;
}

std::vector<uint32_t> MakeReadSequence(Rng& rng,
                                       const std::vector<ReadStmt>& pool,
                                       size_t n) {
  std::vector<std::vector<uint32_t>> by_class(kNumReadClasses);
  for (uint32_t i = 0; i < pool.size(); ++i) {
    by_class[static_cast<int>(pool[i].cls)].push_back(i);
  }
  int total = 0;
  for (int w : kClassWeight) total += w;
  std::vector<uint32_t> seq(n);
  for (uint32_t& idx : seq) {
    int pick = static_cast<int>(rng.Below(static_cast<uint64_t>(total)));
    int c = 0;
    while (pick >= kClassWeight[c]) pick -= kClassWeight[c++];
    const std::vector<uint32_t>& members = by_class[c];
    idx = members[rng.Below(members.size())];
  }
  return seq;
}

size_t ReadingsOracle::FirstAlive(Timestamp tick_time,
                                  Duration retention) const {
  const Timestamp cutoff = tick_time - retention;
  // Rows are in insertion-time order; live rows are those after cutoff.
  auto it = std::upper_bound(
      rows_.begin(), rows_.end(), cutoff,
      [](Timestamp t, const Reading& r) { return t < r.ts; });
  return static_cast<size_t>(it - rows_.begin());
}

double CellNumber(const Value& v) {
  if (v.is_null()) return std::nan("");
  switch (v.type()) {
    case DataType::kInt64:
      return static_cast<double>(v.AsInt64());
    case DataType::kFloat64:
      return v.AsFloat64();
    case DataType::kTimestamp:
      return static_cast<double>(v.AsTimestamp());
    default:
      return std::nan("");
  }
}

namespace {

std::string CellString(const Value& v) {
  if (v.is_null() || v.type() != DataType::kString) return "<not a string>";
  return v.AsString();
}

std::string Shape(const ResultSet& rs, size_t rows, size_t cols) {
  if (rs.num_rows() == rows && rs.num_columns() == cols) return "";
  return "expected " + std::to_string(rows) + "x" + std::to_string(cols) +
         " result, got " + std::to_string(rs.num_rows()) + "x" +
         std::to_string(rs.num_columns());
}

struct Acc {
  uint64_t n = 0;
  long double sum = 0;
  double max = -INFINITY;
  double min = INFINITY;
  void Add(double x) {
    ++n;
    sum += x;
    max = std::max(max, x);
    min = std::min(min, x);
  }
};

}  // namespace

std::string ReadingsOracle::Check(const ReadStmt& s, const ResultSet& rs,
                                  size_t first) const {
  switch (s.cls) {
    case ReadClass::kLookup: {
      std::vector<std::pair<double, double>> want;
      for (size_t i = first; i < rows_.size(); ++i) {
        const Reading& r = rows_[i];
        if (r.sensor == s.sensor && r.ts >= s.from) {
          want.emplace_back(static_cast<double>(r.ts), r.temp);
        }
      }
      if (std::string e = Shape(rs, want.size(), 3); !e.empty()) return e;
      std::vector<std::pair<double, double>> got;
      for (const auto& row : rs.rows) {
        const double f = CellNumber(row[2]);
        if (!(f > 0.0 && f <= 1.0)) {
          return "freshness " + Double17(f) + " outside (0, 1]";
        }
        got.emplace_back(CellNumber(row[0]), CellNumber(row[1]));
      }
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      if (got != want) return "lookup rows differ";
      return "";
    }
    case ReadClass::kRange: {
      uint64_t n = 0;
      for (size_t i = first; i < rows_.size(); ++i) {
        n += rows_[i].temp >= s.lo && rows_[i].temp < s.hi;
      }
      if (std::string e = Shape(rs, 1, 1); !e.empty()) return e;
      if (CellNumber(rs.at(0, 0)) != static_cast<double>(n)) {
        return "count " + Double17(CellNumber(rs.at(0, 0))) + ", expected " +
               std::to_string(n);
      }
      return "";
    }
    case ReadClass::kAgg: {
      Acc a;
      Acc b;
      for (size_t i = first; i < rows_.size(); ++i) {
        const Reading& r = rows_[i];
        a.Add(s.variant == 0 ? r.temp : r.hum);
        b.Add(s.variant == 0 ? r.hum : r.temp);
      }
      if (std::string e = Shape(rs, 1, 4); !e.empty()) return e;
      const double avg = static_cast<double>(a.sum / a.n);
      if (CellNumber(rs.at(0, 0)) != static_cast<double>(a.n)) {
        return "count " + Double17(CellNumber(rs.at(0, 0))) + ", expected " +
               std::to_string(a.n);
      }
      if (!NearlyEqual(CellNumber(rs.at(0, 1)), avg)) return "avg differs";
      if (CellNumber(rs.at(0, 2)) != a.max) return "max differs";
      if (CellNumber(rs.at(0, 3)) != b.min) return "min differs";
      return "";
    }
    case ReadClass::kGroup: {
      std::map<std::string, Acc> groups;
      for (size_t i = first; i < rows_.size(); ++i) {
        const Reading& r = rows_[i];
        if (s.variant == 0) {
          groups[SensorName(r.sensor)].Add(r.temp);
        } else {
          groups[RegionName(RegionOf(r.sensor))].Add(r.hum);
        }
      }
      if (std::string e = Shape(rs, groups.size(), 3); !e.empty()) {
        return "group keys: " + e;
      }
      size_t row = 0;
      for (const auto& [key, acc] : groups) {
        const auto& got = rs.rows[row++];
        if (CellString(got[0]) != key) {
          return "group key " + CellString(got[0]) + ", expected " + key;
        }
        if (CellNumber(got[1]) != static_cast<double>(acc.n)) {
          return "group " + key + " count differs";
        }
        const double want = s.variant == 0
                                ? acc.max
                                : static_cast<double>(acc.sum / acc.n);
        if (!NearlyEqual(CellNumber(got[2]), want)) {
          return "group " + key + " aggregate differs";
        }
      }
      return "";
    }
    case ReadClass::kTopk: {
      std::vector<std::tuple<double, int, Timestamp>> match;
      for (size_t i = first; i < rows_.size(); ++i) {
        const Reading& r = rows_[i];
        if (RegionOf(r.sensor) == s.region) {
          match.emplace_back(r.temp, r.sensor, r.ts);
        }
      }
      const size_t k = std::min<size_t>(10, match.size());
      auto by_temp = [&](const auto& x, const auto& y) {
        return s.variant == 0 ? std::get<0>(x) > std::get<0>(y)
                              : std::get<0>(x) < std::get<0>(y);
      };
      std::partial_sort(match.begin(), match.begin() + k, match.end(),
                        by_temp);
      if (std::string e = Shape(rs, k, 3); !e.empty()) return e;
      for (size_t i = 0; i < k; ++i) {
        const auto& got = rs.rows[i];
        const auto& [temp, sensor, ts] = match[i];
        if (CellString(got[0]) != SensorName(sensor) ||
            CellNumber(got[1]) != temp ||
            CellNumber(got[2]) != static_cast<double>(ts)) {
          return "top-k row " + std::to_string(i) + " differs";
        }
      }
      return "";
    }
  }
  return "unknown class";
}

std::vector<uint64_t> ReadingsOracle::LivePerSensor(size_t first) const {
  std::vector<uint64_t> n(kSensors, 0);
  for (size_t i = first; i < rows_.size(); ++i) ++n[rows_[i].sensor];
  return n;
}

std::vector<uint64_t> ReadingsOracle::GeneratedPerSensor() const {
  return LivePerSensor(0);
}

uint64_t DigestResult(const ResultSet& rs) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  };
  for (const auto& row : rs.rows) {
    for (const Value& v : row) {
      if (v.is_null()) {
        mix("N", 1);
      } else if (v.type() == DataType::kString) {
        mix(v.AsString().data(), v.AsString().size());
      } else {
        const double d = CellNumber(v);
        mix(&d, sizeof(d));
      }
    }
    mix("|", 1);
  }
  return h;
}

std::string CompareResults(const ResultSet& a, const ResultSet& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return "shape " + std::to_string(a.num_rows()) + "x" +
           std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_rows()) + "x" +
           std::to_string(b.num_columns());
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      const Value& x = a.at(r, c);
      const Value& y = b.at(r, c);
      if (x.is_null() || y.is_null() || x.type() == DataType::kString ||
          y.type() == DataType::kString) {
        if (!x.Equals(y)) return "cell differs at row " + std::to_string(r);
        continue;
      }
      if (!NearlyEqual(CellNumber(x), CellNumber(y))) {
        return "cell differs at row " + std::to_string(r);
      }
    }
  }
  return "";
}

bool PerturbAnswer(Perturb perturb, ReadClass cls, ResultSet& rs) {
  if (perturb == Perturb::kCount &&
      (cls == ReadClass::kRange || cls == ReadClass::kAgg) &&
      rs.num_rows() == 1) {
    rs.rows[0][0] = Value::Int64(rs.at(0, 0).AsInt64() + 1);
    return true;
  }
  if (perturb == Perturb::kGroupKey && cls == ReadClass::kGroup &&
      rs.num_rows() > 0) {
    rs.rows.erase(rs.rows.begin());
    return true;
  }
  return false;
}

}  // namespace fungusbench
