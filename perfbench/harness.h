// Shared plumbing of the end-to-end benchmark: run options, the report
// (metrics, per-phase operation counts, correctness verdict, final JSON
// line), sample statistics, the span tracer, and a scratch directory that
// is removed on every exit path.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path work_dir;  // scratch + trace output root
  std::string git_sha = "unknown";
};

// Runs do whole rounds of fixed work, and how many is fixed by counting,
// not by a clock: `seconds` of the run's time at the workload's nominal
// round length on the reference 4-core box (README), at least one. Every
// run with the same --seconds does the same amount of work, so order
// statistics sit at the same ranks from run to run.
[[nodiscard]] std::size_t rounds_for(double seconds, double nominal_round_s);

// Median and tail of a latency sample. The tail is the highest percentile
// that still has at least ten samples beyond it (nearest rank); below 40
// samples there is no such tail worth the name and `tail` is the median.
struct Summary {
  std::size_t n = 0;
  double median = 0;
  double mean = 0;
  double tail = 0;
  double tail_pct = 50;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);
[[nodiscard]] double median_of(std::vector<double> samples);
[[nodiscard]] double sum_of(const std::vector<double>& samples);
[[nodiscard]] double mean_of(const std::vector<double>& samples);

// One span of the traced run: a timed call into one layer.
struct Span {
  std::string name;
  double start_ms = 0;  // since the tracer's origin
  double end_ms = 0;
  std::int64_t parent = -1;  // index into the span list, -1 = root
  std::uint64_t request = 0;
};

// Spans are kept in memory (one mutex-guarded vector; the traced run
// records a few thousand) and written out once when the run ends.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  // Opens a span and returns its index; close it with end().
  std::int64_t begin(std::string name, std::uint64_t request,
                     std::int64_t parent = -1);
  // Closes the span and returns its duration in ms.
  double end(std::int64_t span);
  // Durations of every closed span with this name, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  void write(const std::filesystem::path& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Times one call; with a tracer, also records it as a span.
template <typename Fn>
double timed_span(Tracer* tracer, const char* name, std::uint64_t request,
                  std::int64_t parent, Fn&& fn) {
  if (tracer == nullptr) {
    const auto start = Clock::now();
    fn();
    return ms_since(start);
  }
  const std::int64_t span = tracer->begin(name, request, parent);
  fn();
  return tracer->end(span);
}

class Report {
 public:
  // A metric printed in the final JSON line (the names BENCHMARK.json
  // lists) together with the sample count behind it.
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  // A figure printed only in the human-readable lines above the JSON.
  void note(const std::string& name, double value, const std::string& unit,
            std::size_t samples, const std::string& detail = "");
  void text(const std::string& line);

  // Per-phase operation counts; a failed operation is counted here and
  // the run carries on.
  void attempt(const std::string& phase, std::uint64_t n = 1);
  void fail(const std::string& phase, const std::string& why);
  // A failed output check: the run is reported incorrect.
  void check(bool ok, const std::string& what);


  // Prints the stamps, notes, phase counts and the final JSON line.
  void print(const Options& opt) const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
    std::string detail;
  };
  struct PhaseCount {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> notes_;
  std::vector<std::string> lines_;
  std::vector<std::string> phase_order_;
  std::map<std::string, PhaseCount> phases_;
  std::vector<std::string> check_failures_;
  bool correct_ = true;
};

// A pid-unique directory under the work dir, removed by the destructor
// (also when a check fails or an exception unwinds the workload).
class ScratchDir {
 public:
  ScratchDir(const std::filesystem::path& root, const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
};

[[nodiscard]] double peak_rss_mb();
// Bytes of every regular file under `dir`.
[[nodiscard]] std::uint64_t dir_bytes(const std::filesystem::path& dir);

// Workload entry points; each fills the report and returns normally even
// when checks fail (the report carries the verdict).
void run_search_cold(const Options& opt, Report& report,
                     Clock::time_point process_start);
void run_search_hot(const Options& opt, Report& report,
                    Clock::time_point process_start);
void run_ingest_reload(const Options& opt, Report& report,
                       Clock::time_point process_start);

// The oracle's own test cases; returns the number of failed cases.
int run_selftest();

}  // namespace perfbench
