// Shared pieces of the FungusDB benchmark: command-line arguments, the
// deterministic input generator, latency samples, the result report and
// the benchmark-side span recorder.
//
// Every number the benchmark reports is measured from outside the
// program: by timing calls into public functions with steady_clock, or
// by reading counters the program already exposes. Nothing here reaches
// into src/ internals.

#ifndef FUNGUSBENCH_BENCH_H_
#define FUNGUSBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fungusbench {

/// Which check a self-test deliberately breaks (the run must then
/// report correct=false).
enum class Perturb {
  kNone,
  kCount,
  kGroupKey,
  kConservation,       // one readings row dropped from the live tally
  kEventConservation,  // one events row dropped from the live tally
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs and short phases: every check on, done in seconds.
  bool tiny = false;
  Perturb perturb = Perturb::kNone;
  /// Scratch directory for snapshot files and the trace output.
  std::string work_dir = ".";
};

/// splitmix64: small, fast and identical on every platform, so one seed
/// gives the same inputs everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A set of measurements of one quantity.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Sum() const;
  double Mean() const;
  /// Nearest-rank quantile (0 when empty).
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// True when at least ten samples lie beyond the q-quantile, the
  /// condition for reporting it as a tail.
  bool TailSupported(double q) const;
  /// Operations per second of a lockstep caller whose samples are
  /// durations in microseconds, in the order taken: the median over
  /// consecutive blocks of `block` samples of block / time. One stall
  /// slows one block, not the figure (0 without a full block).
  double MedianBlockRate(size_t block) const;

 private:
  std::vector<double> values_;
};

/// The run's outcome: correctness, operation counts and metrics, printed
/// as the last line of stdout. Not thread-safe: fill it from one thread.
class Report {
 public:
  /// Records a failed check; the run is then not correct.
  void Fail(const std::string& what);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  void CountAttempted(uint64_t n) { attempted_ += n; }
  void CountFailed(uint64_t n) { failed_ += n; }

  /// Adds one metric. `samples` is the number of measurements behind it
  /// (0 for a value read at one moment).
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 0);
  /// Median and 99th percentile of `s`. The p99 needs ten samples beyond
  /// it; with fewer it is left out and a warning says so.
  void Latency(const std::string& prefix, const Samples& s,
               const std::string& unit);
  /// Adds one per-layer metric (reported by traced runs).
  void Layer(const std::string& name, double value, const std::string& unit,
             size_t samples = 0);

  /// One human-readable line per metric with its sample count, then the
  /// JSON result line: end-to-end metrics, or for a traced run the
  /// per-layer metrics (its end-to-end numbers go on the line before,
  /// tagged `traced_end_to_end`, to measure the tracing overhead).
  void Print(bool traced) const;

  struct Entry {
    double value;
    std::string unit;
    size_t samples;
  };

 private:
  std::vector<std::string> failures_;
  std::vector<std::string> warnings_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, Entry> metrics_;
  std::map<std::string, Entry> layers_;
};

/// Benchmark-side spans: name, start, end, parent and a statement / tick
/// id, kept in memory per thread and written once as Chrome trace-event
/// JSON (loadable in Perfetto). Disabled tracers record nothing; Scope
/// still times its interval, so callers can use it as a stopwatch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Microseconds since the scope opened.
    double ElapsedUs() const { return (NowNs() - start_ns_) * 1e-3; }

   private:
    Tracer& tracer_;
    int64_t start_ns_;
    int32_t index_ = -1;
  };

  /// Writes the trace file. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;
  /// Self time (span time minus direct child spans) and total time per
  /// span name, in milliseconds, with span counts.
  struct SelfTime {
    double self_ms = 0;
    double total_ms = 0;
    uint64_t count = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;
  size_t num_spans() const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    int32_t parent;  // index in the same thread's buffer, or -1
  };
  struct Buffer {
    uint32_t tid = 0;
    std::vector<Span> spans;
    std::vector<int32_t> open;  // stack of open span indices
  };
  Buffer& ThreadBuffer();

  const bool enabled_;
  const int64_t origin_ns_ = NowNs();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// Relative difference check used for sums and averages.
bool NearlyEqual(double a, double b, double rel = 1e-9);

/// Number of CPUs this process may run on (what `nproc` prints).
int AvailableCpus();

}  // namespace fungusbench

#endif  // FUNGUSBENCH_BENCH_H_
