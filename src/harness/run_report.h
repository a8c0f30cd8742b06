// Machine-readable run reports: opt-in, process-wide capture of metric
// snapshots, written as a JSON sidecar when the process exits.
//
// Benches call enable_run_report("<figNN>") once at the top of main; every
// TestBed then contributes a labelled snapshot of its metric registry when
// it is torn down, and an atexit hook writes <name>_metrics.json into
// $PACON_METRICS_DIR (default: reports/). Tests and the repository
// benchmark never enable it, so they pay nothing.
//
// enable_timeline("<figNN>") is the flight-recorder twin: every TestBed
// then runs an obs::FlightRecorder over its simulation and contributes its
// frame ring at teardown; the atexit hook writes <name>_timeline.json next
// to the metrics sidecar. Cadence/capacity come from TestBedConfig.
#pragma once

#include <string>

#include "obs/recorder.h"
#include "obs/report.h"
#include "sim/metrics.h"

namespace pacon::harness {

/// Turns the global run report on and names its output file. Idempotent;
/// the first call installs the atexit writer.
void enable_run_report(const std::string& name);

bool run_report_enabled();

obs::RunReport& global_report();

/// Adds a labelled snapshot of `registry` to the global report when it is
/// enabled; no-op otherwise.
void report_capture(const std::string& label, const sim::MetricRegistry& registry);

/// Turns the global timeline report on and names its output file: every
/// TestBed created afterwards records a metric timeline and captures it at
/// teardown. Idempotent; the first call installs the atexit writer.
void enable_timeline(const std::string& name);

bool timeline_enabled();

obs::TimelineReport& global_timeline();

/// Adds `recorder`'s frame ring as a labelled series to the global timeline
/// when it is enabled; no-op otherwise.
void timeline_capture(const std::string& label, const obs::FlightRecorder& recorder);

}  // namespace pacon::harness
