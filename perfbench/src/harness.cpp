#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_nvcsw, ru.ru_nivcsw};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void report_usage(const Usage& usage, Result& result) {
  result.metric("proc.cpu_user_s", usage.user_s, "s");
  result.metric("proc.cpu_sys_s", usage.sys_s, "s");
  result.metric("proc.vol_ctx_switches", static_cast<double>(usage.vol_cs),
                "count");
  result.metric("proc.invol_ctx_switches", static_cast<double>(usage.invol_cs),
                "count");
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Result::fail(std::uint64_t n, const std::string& why) {
  failed_ += n;
  std::cerr << "perfbench: FAILED (" << n << " op" << (n == 1 ? "" : "s")
            << "): " << why << '\n';
}

void Result::expect_eq(const std::string& what, std::uint64_t got,
                       std::uint64_t want, std::uint64_t n) {
  if (got == want) return;
  fail(n, what + ": got " + std::to_string(got) + ", want " +
              std::to_string(want));
}

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(v.value) ? v.value : 0.0);
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << num
       << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSvc:
      return "svc";
    case Layer::kWire:
      return "wire";
    case Layer::kTlc:
      return "tlc";
    case Layer::kServe:
      return "serve";
    case Layer::kExp:
      return "exp";
  }
  return "?";
}

std::int32_t Tracer::open(const char* name, Layer layer, std::uint32_t group,
                          std::int32_t parent) {
  spans_.push_back(Span{name, group, parent, layer, now_ns(), 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].t1 = now_ns();
}

std::array<std::int64_t, kLayerCount> Tracer::layer_self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] += s.t1 - s.t0;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
  }
  std::array<std::int64_t, kLayerCount> out{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer == Layer::kSvc) continue;
    out[static_cast<std::size_t>(spans_[i].layer)] += self[i];
  }
  return out;
}

std::int64_t Tracer::total_ns(const char* name) const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) total += s.t1 - s.t0;
  }
  return total;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os{path};
  if (!os) {
    std::cerr << "perfbench: cannot write span dump " << path << '\n';
    return;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"group\":" << s.group << ",\"layer\":\"" << layer_name(s.layer)
       << "\",\"name\":\"" << s.name << "\",\"start_ns\":" << s.t0
       << ",\"end_ns\":" << s.t1 << "}\n";
  }
}

double report_breakdown(const Tracer& tracer, std::int64_t busy_ns,
                        Result& result) {
  const std::array<std::int64_t, kLayerCount> self = tracer.layer_self_ns();
  std::int64_t covered = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer == Layer::kSvc) continue;
    covered += self[l];
    result.metric(std::string{layer_name(layer)} + ".self_ms",
                  static_cast<double>(self[l]) * 1e-6, "ms");
  }
  const std::int64_t unattributed = busy_ns - covered;
  const double ratio =
      static_cast<double>(unattributed) / static_cast<double>(busy_ns);
  result.metric("svc.busy_ms", static_cast<double>(busy_ns) * 1e-6, "ms");
  result.metric("trace.unattributed_ms",
                static_cast<double>(unattributed) * 1e-6, "ms");
  result.metric("trace.unattributed_ratio", ratio, "ratio");
  if (unattributed < 0) {
    result.fail(1, "layer spans cover " + std::to_string(covered) +
                       " ns of a " + std::to_string(busy_ns) +
                       " ns busy time");
  }
  return ratio;
}

}  // namespace perfbench
