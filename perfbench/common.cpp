#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace shambench {

namespace {

std::string vformat(const char* format, va_list args) {
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string out(static_cast<std::size_t>(std::max(size, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  return out;
}

}  // namespace

void RunResult::metric(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::note(const char* format, ...) {
  va_list args;
  va_start(args, format);
  notes.push_back(vformat(format, args));
  va_end(args);
}

void RunResult::fail(const char* format, ...) {
  va_list args;
  va_start(args, format);
  errors.push_back(vformat(format, args));
  va_end(args);
  correct = false;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::clamp(rank, 1.0,
                                                         static_cast<double>(values.size())));
  return values[index - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

CpuTimes cpu_times() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t file_fingerprint(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + path};
  std::uint64_t hash = kFnvOffset;
  std::vector<char> buffer(1 << 20);
  while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
         in.gcount() > 0) {
    hash = fnv1a({buffer.data(), static_cast<std::size_t>(in.gcount())}, hash);
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

void Tracer::record(const Span& span) {
  std::lock_guard lock{mutex_};
  spans_.push_back(span);
}

double Tracer::self_seconds(std::string_view name) const {
  std::lock_guard lock{mutex_};
  std::unordered_map<std::uint64_t, double> covered;  // parent id -> child time
  for (const auto& s : spans_) {
    if (s.parent != 0) covered[s.parent] += s.end - s.start;
  }
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.name != name) continue;
    const auto it = covered.find(s.id);
    const double children = it == covered.end() ? 0.0 : it->second;
    total += std::max(0.0, (s.end - s.start) - children);
  }
  return total;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard lock{mutex_};
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error{"cannot write " + path};
  for (const auto& s : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%.*s\",\"id\":%llu,\"parent\":%llu,\"item\":%llu,"
                 "\"start\":%.9f,\"end\":%.9f}\n",
                 static_cast<int>(s.name.size()), s.name.data(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.item), s.start, s.end);
  }
  std::fclose(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string_view name, std::uint64_t parent,
                       std::uint64_t item)
    : tracer_{tracer}, start_{Clock::now()} {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.item = item;
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.start = tracer_->offset(start_);
  span_.end = tracer_->offset(Clock::now());
  try {
    tracer_->record(span_);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace: span %.*s dropped: %s\n",
                 static_cast<int>(span_.name.size()), span_.name.data(), e.what());
  }
}

}  // namespace shambench
