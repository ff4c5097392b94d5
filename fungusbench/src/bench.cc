#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace fungusbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

bool Samples::TailSupported(double q) const {
  const double n = static_cast<double>(values_.size());
  return n - std::ceil(q * n) >= 10;
}

double Samples::MedianBlockRate(size_t block) const {
  Samples rates;
  for (size_t i = 0; i + block <= values_.size(); i += block) {
    double us = 0;
    for (size_t j = i; j < i + block; ++j) us += values_[j];
    rates.Add(static_cast<double>(block) / (us * 1e-6));
  }
  return rates.Median();
}

void Report::Fail(const std::string& what) {
  // Keep the first few; one broken invariant tends to repeat.
  if (failures_.size() < 20) failures_.push_back(what);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  metrics_[name] = Entry{value, unit, samples};
}

void Report::Latency(const std::string& prefix, const Samples& s,
                     const std::string& unit) {
  Metric(prefix + "_p50_" + unit, s.Median(), unit, s.size());
  if (!s.TailSupported(0.99)) {
    warnings_.push_back(prefix + "_p99_" + unit + " left out: only " +
                        std::to_string(s.size()) + " samples");
    return;
  }
  Metric(prefix + "_p99_" + unit, s.Quantile(0.99), unit, s.size());
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, size_t samples) {
  layers_[name] = Entry{value, unit, samples};
}

namespace {

std::string MetricsJson(const std::map<std::string, Report::Entry>& m) {
  std::ostringstream json;
  json << "{";
  bool first = true;
  for (const auto& [name, e] : m) {
    if (!first) json << ", ";
    first = false;
    json << JsonString(name) << ": {\"value\": " << JsonNumber(e.value)
         << ", \"unit\": " << JsonString(e.unit) << "}";
  }
  json << "}";
  return json.str();
}

}  // namespace

void Report::Print(bool traced) const {
  const auto& shown = traced ? layers_ : metrics_;
  for (const auto& [name, e] : shown) {
    std::cout << "metric " << name << " = " << JsonNumber(e.value) << " "
              << e.unit;
    if (e.samples > 0) std::cout << " (n=" << e.samples << ")";
    std::cout << "\n";
  }
  for (const std::string& w : warnings_) std::cerr << "warning: " << w << "\n";
  for (const std::string& f : failures_) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  if (traced) {
    std::cout << "traced_end_to_end " << MetricsJson(metrics_) << "\n";
  }
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted_
            << ", \"failed\": " << failed_
            << ", \"metrics\": " << MetricsJson(shown) << "}" << std::endl;
}

Tracer::Buffer& Tracer::ThreadBuffer() {
  thread_local const Tracer* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<uint32_t>(buffers_.size());
    buffer->spans.reserve(1 << 16);
    owner = this;
  }
  return *buffer;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, uint64_t id)
    : tracer_(tracer), start_ns_(NowNs()) {
  if (!tracer_.enabled_) return;
  Buffer& b = tracer_.ThreadBuffer();
  const int32_t parent = b.open.empty() ? -1 : b.open.back();
  index_ = static_cast<int32_t>(b.spans.size());
  b.spans.push_back(Span{name, start_ns_, 0, id, parent});
  b.open.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Buffer& b = tracer_.ThreadBuffer();
  b.spans[static_cast<size_t>(index_)].end_ns = NowNs();
  b.open.pop_back();
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  char buf[512];
  for (const auto& b : buffers_) {
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"cat\":\"fungusbench\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
          "\"args\":{\"id\":%llu,\"span\":%zu,\"parent\":%d}}",
          first ? "" : ",\n", s.name, (s.start_ns - origin_ns_) * 1e-3,
          (s.end_ns - s.start_ns) * 1e-3, b->tid,
          static_cast<unsigned long long>(s.id), i, s.parent);
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::map<std::string, SelfTime> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    std::vector<int64_t> child_ns(b->spans.size(), 0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      SelfTime& t = out[s.name];
      const int64_t dur = s.end_ns - s.start_ns;
      t.total_ms += dur * 1e-6;
      t.self_ms += (dur - child_ns[i]) * 1e-6;
      ++t.count;
    }
  }
  return out;
}

bool NearlyEqual(double a, double b, double rel) {
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= rel * scale;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace fungusbench
