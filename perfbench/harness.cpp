#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/cpu_features.h"

namespace perfbench {

namespace fs = std::filesystem;

std::size_t rounds_for(double seconds, double nominal_round_s) {
  const double rounds = std::floor(seconds / nominal_round_s + 0.5);
  return rounds < 1 ? 1 : static_cast<std::size_t>(rounds);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = median_of(samples);
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(s.n);
  if (s.n >= 40) {
    // Nearest rank n-10 (1-based) leaves exactly ten samples above it.
    const std::size_t rank = s.n - 10;
    s.tail = samples[rank - 1];
    s.tail_pct = 100.0 * static_cast<double>(rank) / static_cast<double>(s.n);
  } else {
    s.tail = s.median;
    s.tail_pct = 50;
  }
  return s;
}

double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double sum_of(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

double mean_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : sum_of(samples) / static_cast<double>(samples.size());
}

std::int64_t Tracer::begin(std::string name, std::uint64_t request,
                           std::int64_t parent) {
  const double now = std::chrono::duration<double, std::milli>(
                         Clock::now() - origin_)
                         .count();
  std::lock_guard lock(mu_);
  spans_.push_back({std::move(name), now, -1, parent, request});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

double Tracer::end(std::int64_t span) {
  const double now = std::chrono::duration<double, std::milli>(
                         Clock::now() - origin_)
                         .count();
  std::lock_guard lock(mu_);
  Span& s = spans_.at(static_cast<std::size_t>(span));
  s.end_ms = now;
  return s.end_ms - s.start_ms;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ms >= 0) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

void Tracer::write(const fs::path& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,"
                  "\"parent\":%lld,\"start_ms\":%.6f,\"end_ms\":%.6f}%s\n",
                  i, s.name.c_str(), static_cast<unsigned long long>(s.request),
                  static_cast<long long>(s.parent), s.start_ms, s.end_ms,
                  i + 1 == spans_.size() ? "" : ",");
    out << buf;
  }
  out << "]\n";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, value, unit, samples, ""});
}

void Report::note(const std::string& name, double value,
                  const std::string& unit, std::size_t samples,
                  const std::string& detail) {
  notes_.push_back({name, value, unit, samples, detail});
}

void Report::text(const std::string& line) { lines_.push_back(line); }

void Report::attempt(const std::string& phase, std::uint64_t n) {
  auto [it, inserted] = phases_.try_emplace(phase);
  if (inserted) phase_order_.push_back(phase);
  it->second.attempted += n;
}

void Report::fail(const std::string& phase, const std::string& why) {
  auto [it, inserted] = phases_.try_emplace(phase);
  if (inserted) phase_order_.push_back(phase);
  ++it->second.failed;
  if (it->second.failed <= 3) {
    lines_.push_back("operation failed in " + phase + ": " + why);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  if (check_failures_.size() < 8) check_failures_.push_back(what);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

// JSON numbers keep every digit the measurement has.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void Report::print(const Options& opt) const {
  std::printf("# workload %s  seed %llu  seconds %g  trace %d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("# git %s\n", opt.git_sha.c_str());
  std::printf("# cpu %s  nproc %u\n", cpu_model().c_str(),
              std::thread::hardware_concurrency());
  std::printf("# simd detected %s  effective %s\n",
              apks::simd_level_name(apks::simd_level_detected()),
              apks::simd_level_name(apks::simd_level()));
  for (const std::string& line : lines_) std::printf("# %s\n", line.c_str());
  for (const Entry& e : notes_) {
    std::printf("# figure %-34s %14.6f %-8s samples %zu%s%s\n",
                e.name.c_str(), e.value, e.unit.c_str(), e.samples,
                e.detail.empty() ? "" : "  ", e.detail.c_str());
  }
  for (const Entry& e : metrics_) {
    std::printf("# metric %-34s %14.6f %-8s samples %zu\n", e.name.c_str(),
                e.value, e.unit.c_str(), e.samples);
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const std::string& phase : phase_order_) {
    const PhaseCount& c = phases_.at(phase);
    std::printf("# phase %-20s attempted %llu failed %llu\n", phase.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
    attempted += c.attempted;
    failed += c.failed;
  }
  for (const std::string& what : check_failures_) {
    std::printf("# CHECK FAILED: %s\n", what.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    if (i != 0) json += ", ";
    json += "\"" + e.name + "\": {\"value\": " + json_number(e.value) +
            ", \"unit\": \"" + e.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

ScratchDir::ScratchDir(const fs::path& root, const std::string& tag)
    : path_(root / ("run-" + tag + "-" + std::to_string(getpid()))) {
  fs::remove_all(path_);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace perfbench
