// Shared types of the repository benchmark (see README.md in this
// directory): named metrics, workload sizes and the result of one workload
// iteration or ladder rung.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered list of metrics; later code looks values up by name.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void append(const Metrics& other) {
    items_.insert(items_.end(), other.items_.begin(), other.items_.end());
  }
  const std::vector<Metric>& items() const { return items_; }
  /// Value of `name`, or nullptr when absent.
  const Metric* find(const std::string& name) const {
    for (const Metric& m : items_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  std::vector<Metric> items_;
};

/// Workload sizes. `full()` is what the benchmark command measures;
/// `small()` is the quick variant the benchmark's own test uses. The
/// deployment shapes (16 nodes x 20 clients, 64 mega nodes) are fixed.
struct Scale {
  /// Creates per client (mdtest -C); also the getattrs per client of
  /// indexfs-mdtest's stat phase (mdtest -R).
  int ops_per_client = 200;
  std::uint64_t mega_clients = 50'000;
  /// The traced run divides ops_per_client, mega_clients and
  /// reads_per_client by this.
  int trace_divisor = 8;
  /// Per-call counts of the ladder rungs are multiplied by this.
  double ladder_factor = 1.0;
  /// Getattrs per client of pacon-stat's measured phase (mdtest -R).
  int reads_per_client = 1000;

  static Scale full() { return Scale{}; }
  static Scale small() { return Scale{20, 5'000, 2, 0.1, 50}; }
};

/// One run of a workload: set-up, measured phase, then the checks.
struct Iteration {
  double setup_s = 0;  // host seconds to build and populate the deployment
  double wall_s = 0;   // host seconds of the measured phase (ops + drain)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Virtual-time metrics: identical for a seed, compared across iterations.
  Metrics virt;
  /// Per-layer counters of the measured phase (also deterministic).
  Metrics layers;
  /// Host-time per-layer metrics (not compared across iterations).
  Metrics host;
  /// trace.* shares; filled only by a traced iteration.
  Metrics trace;
  /// Human-readable lines (percentiles with sample counts, phase rates).
  std::vector<std::string> notes;
  /// Failed correctness checks; any entry makes the run incorrect.
  std::vector<std::string> check_failures;
};

const std::vector<std::string>& workload_names();

/// Iterations an end-to-end run of `workload` makes for a budget of
/// `seconds`: fixed by the arguments alone, so a run's op counts repeat.
int iterations_for(const std::string& workload, double seconds);

/// Runs `workload` once. With `traced`, an obs::Tracer records the measured
/// phase and `Iteration::trace` holds the per-op category shares.
Iteration run_workload(const std::string& workload, std::uint64_t seed, const Scale& scale,
                       bool traced);

/// Scale with per-client counts divided for the traced run.
Scale traced_scale(const Scale& scale);

/// Times every rung of the per-layer ladder; returns `<rung>_ns`,
/// `<rung>.v_us` and `<rung>.events_per_call` for each.
Metrics run_ladder(std::uint64_t seed, const Scale& scale);

}  // namespace pbench
