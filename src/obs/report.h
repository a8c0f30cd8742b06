// Machine-readable run reports.
//
// Serializes a MetricRegistry snapshot to JSON so benches can emit
// `<name>_metrics.json` sidecars that scripts and ad-hoc analysis can read
// without scraping stdout. One report may hold several labelled snapshots --
// a bench that builds multiple testbeds (pacon vs. indexfs vs. beegfs legs)
// captures each under its own label.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/metrics.h"

namespace pacon::obs {

/// JSON object for one registry: {"counters":{...},"gauges":{...},
/// "histograms":{name:{count,mean,min,max,p50,p90,p99,p999}}}.
std::string metrics_json(const sim::MetricRegistry& registry);

/// Accumulates labelled registry snapshots and writes them as one JSON file:
/// {"name":..., "snapshots":[{"label":...,"metrics":{...}}, ...]}.
class RunReport {
 public:
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  void capture(std::string_view label, const sim::MetricRegistry& registry) {
    snapshots_.emplace_back(std::string(label), metrics_json(registry));
  }
  std::size_t snapshot_count() const { return snapshots_.size(); }

  std::string to_json() const;

  /// Writes to `dir`/`name`_metrics.json (dir "" = cwd). False on I/O error.
  bool write(const std::string& dir) const;

 private:
  std::string name_ = "run";
  std::vector<std::pair<std::string, std::string>> snapshots_;
};

}  // namespace pacon::obs
