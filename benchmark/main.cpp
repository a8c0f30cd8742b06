// Benchmark entry point: runs one workload for an iteration count sized to a
// host-time budget and prints every metric by name and unit, then one JSON
// result line.
//
//   pacon_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--scale full|small]
//
// --trace 0 repeats set-up + measured phase a fixed number of times sized
// to --seconds (at least three) and reports the end-to-end metrics:
// virtual-time ones from the first iteration (later iterations must
// reproduce them exactly), host-time ones as the median over the
// iterations. --trace 1 reports the per-layer metrics: the measured phase's
// counters, a traced run at reduced size reduced with
// obs::per_op_breakdown, and the ladder of per-module rungs.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using namespace pbench;

struct LayerName {
  const char* name;
  const char* unit;
};

/// The per-layer metrics every workload reports (0 where a workload does
/// not exercise the layer), besides the ladder's rung metrics.
const std::vector<LayerName>& layer_names() {
  static const std::vector<LayerName> names{
      {"sim.events", "count"},
      {"sim.events_per_op", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"fs.interned_paths", "count"},
      {"fs.interner_bytes", "bytes"},
      {"kv.hits", "count"},
      {"kv.misses", "count"},
      {"kv.stores", "count"},
      {"kv.hit_ratio", "ratio"},
      {"region.committed_ops", "count"},
      {"region.commit_retries", "count"},
      {"region.barriers_run", "count"},
      {"region.commit_queue_depth_max", "count"},
      {"region.wal_backlog_max", "count"},
      {"region.pending_after_drain", "count"},
      {"commit.v_converge_s", "s"},
      {"commit.drain_wall_share", "ratio"},
      {"dfs.mds_ops_served", "count"},
      {"dfs.mds_ops_per_op", "count"},
      {"lsm.compactions", "count"},
      {"lsm.block_cache_hit_ratio", "ratio"},
      {"indexfs.rpcs_per_op", "count"},
      {"indexfs.lease_hits", "count"},
      {"indexfs.splits", "count"},
      {"indexfs.acked_not_found", "count"},
      {"op.create.v_p50_us", "us"},
      {"op.create.v_p999_us", "us"},
      {"op.create.samples", "count"},
      {"op.stat.v_p50_us", "us"},
      {"op.stat.v_p999_us", "us"},
      {"op.stat.samples", "count"},
      {"failed_frac", "ratio"},
      {"trace.create.ops", "count"},
      {"trace.create.self_share", "ratio"},
      {"trace.create.cache_share", "ratio"},
      {"trace.create.network_share", "ratio"},
      {"trace.create.dfs_share", "ratio"},
      {"trace.create.commit_share", "ratio"},
      {"trace.create.retry_backoff_share", "ratio"},
      {"trace.stat.ops", "count"},
      {"trace.stat.self_share", "ratio"},
      {"trace.stat.cache_share", "ratio"},
      {"trace.stat.network_share", "ratio"},
      {"trace.stat.dfs_share", "ratio"},
      {"trace.stat.commit_share", "ratio"},
      {"trace.stat.retry_backoff_share", "ratio"},
      {"trace.spans", "count"},
      {"trace.export_mb", "MB"},
      {"trace.overhead_s", "s"},
  };
  return names;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Lists where iteration `b` differs from iteration `a` in a deterministic
/// metric.
void compare_deterministic(const Metrics& a, const Metrics& b, int index,
                           std::vector<std::string>& failures) {
  for (const Metric& m : a.items()) {
    const Metric* other = b.find(m.name);
    if (other == nullptr || other->value != m.value) {
      failures.push_back("iteration " + std::to_string(index) + " changed " + m.name +
                         " for the same seed");
    }
  }
}

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> failures;
};

void absorb(Result& r, const Iteration& it) {
  r.attempted += it.attempted;
  r.failed += it.failed;
  r.failures.insert(r.failures.end(), it.check_failures.begin(), it.check_failures.end());
}

void print_iteration(int index, const Iteration& it) {
  std::printf("iteration %d: setup %.3f s, measured %.3f s, %llu ops, %llu failed\n", index,
              it.setup_s, it.wall_s, static_cast<unsigned long long>(it.attempted),
              static_cast<unsigned long long>(it.failed));
}

Result end_to_end(const std::string& workload, std::uint64_t seed, double seconds,
                  const Scale& scale) {
  Result r;
  std::vector<Iteration> its;
  const int iterations = iterations_for(workload, seconds);
  while (static_cast<int>(its.size()) < iterations) {
    its.push_back(run_workload(workload, seed, scale, false));
    print_iteration(static_cast<int>(its.size()) - 1, its.back());
    absorb(r, its.back());
  }
  const Iteration& first = its.front();
  for (std::size_t i = 1; i < its.size(); ++i) {
    compare_deterministic(first.virt, its[i].virt, static_cast<int>(i), r.failures);
    compare_deterministic(first.layers, its[i].layers, static_cast<int>(i), r.failures);
  }
  for (const std::string& note : first.notes) std::printf("  %s\n", note.c_str());

  // Every iteration does the same work (same seed), so the spread between
  // them is the machine's; the median over the iterations discards the
  // iterations a busy neighbour slowed down most.
  std::vector<double> walls;
  std::vector<double> setups;
  for (const Iteration& it : its) {
    walls.push_back(it.wall_s);
    setups.push_back(it.setup_s);
  }
  r.metrics.append(first.virt);
  r.metrics.add("wall_s", median(walls), "s");
  r.metrics.add("setup_s", median(setups), "s");
  r.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");

  // Metrics that read 0 on some workloads, so they cannot be bounded
  // end-to-end metrics; printed here for the reader.
  const auto layer = [&](const char* name) {
    const Metric* m = first.layers.find(name);
    return m ? m->value : 0.0;
  };
  std::printf("  %-18s %.6g ratio (%llu of %llu ops)\n", "failed_frac", layer("failed_frac"),
              static_cast<unsigned long long>(first.failed),
              static_cast<unsigned long long>(first.attempted));
  std::printf("  %-18s %.6g s\n", "v_converge_s", layer("commit.v_converge_s"));
  for (const char* op : {"create", "stat"}) {
    const std::string p = std::string("op.") + op;
    if (layer((p + ".samples").c_str()) == 0) continue;
    std::printf("  v_%s_p50_us %.6g us, v_%s_p999_us %.6g us (n=%.0f)\n", op,
                layer((p + ".v_p50_us").c_str()), op, layer((p + ".v_p999_us").c_str()),
                layer((p + ".samples").c_str()));
  }
  return r;
}

Result per_layer(const std::string& workload, std::uint64_t seed, const Scale& scale) {
  Result r;
  const Iteration full = run_workload(workload, seed, scale, false);
  print_iteration(0, full);
  absorb(r, full);
  const Scale small = traced_scale(scale);
  const Iteration traced = run_workload(workload, seed, small, true);
  const Iteration untraced = run_workload(workload, seed, small, false);
  absorb(r, traced);
  absorb(r, untraced);
  std::printf("traced run: %.3f s traced vs %.3f s untraced\n", traced.wall_s, untraced.wall_s);
  for (const std::string& note : full.notes) std::printf("  %s\n", note.c_str());

  Metrics found;
  found.append(full.layers);
  found.append(full.host);
  found.append(traced.trace);
  const Metric* events = full.layers.find("sim.events");
  found.add("sim.host_ns_per_event",
            events && events->value > 0 ? full.wall_s * 1e9 / events->value : 0.0, "ns");
  found.add("trace.overhead_s", traced.wall_s - untraced.wall_s, "s");
  for (const LayerName& layer : layer_names()) {
    const Metric* m = found.find(layer.name);
    if (m != nullptr && m->unit != layer.unit) {
      r.failures.push_back(std::string(layer.name) + " reported in " + m->unit);
    }
    r.metrics.add(layer.name, m ? m->value : 0.0, layer.unit);
  }
  r.metrics.append(run_ladder(seed, scale));
  return r;
}

void print_json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::fputs(buf, stdout);
}

void print_result(const Result& r) {
  for (const Metric& m : r.metrics.items()) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : r.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const Metric& m : r.metrics.items()) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", m.name.c_str());
    print_json_number(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: pacon_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--scale full|small]\nworkloads:");
  for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Scale scale = Scale::full();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        workload = value;
      } else if (key == "--seed") {
        seed = std::stoull(value);
      } else if (key == "--seconds") {
        seconds = std::stod(value);
      } else if (key == "--trace") {
        trace = std::stoi(value);
      } else if (key == "--scale" && (value == "full" || value == "small")) {
        scale = value == "full" ? Scale::full() : Scale::small();
      } else {
        return usage();
      }
    }
    if (argc % 2 == 0 || (trace != 0 && trace != 1) ||
        std::find(workload_names().begin(), workload_names().end(), workload) ==
            workload_names().end()) {
      return usage();
    }
    std::printf("workload %s, seed %llu, %s\n", workload.c_str(),
                static_cast<unsigned long long>(seed), trace ? "per-layer" : "end-to-end");
    print_result(trace ? per_layer(workload, seed, scale)
                       : end_to_end(workload, seed, seconds, scale));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "pacon_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
