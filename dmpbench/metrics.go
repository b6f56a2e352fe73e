package main

import (
	"fmt"
	"runtime"
)

// metricDef names one reported metric and its unit. The two tables match
// BENCHMARK.json's end_to_end and per_layer lists (the tests check it).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload.
// run_ms is one simulated scenario on grizzly-week and fleet-100k and one
// cold study POST on dmpd-study; ops_per_s counts scenarios or whole
// studies per second.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"live_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A workload reports 0 for a
// layer it does not exercise.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"grizzly.generate_s", "s"},
		{"grizzly.build_s", "s"},
		{"memtrace.points", "count"},
		{"core.new_ms", "ms"},
		{"core.loop_ms", "ms"},
		{"core.jobs_finished", "count"},
		{"core.oom_kills", "count"},
		{"policy.resizes", "count"},
		{"policy.lease_grants", "count"},
		{"policy.lease_adjusts", "count"},
		{"policy.lease_revokes", "count"},
		{"policy.adjusts_per_resize", "ratio"},
		{"sched.backfill_holes", "count"},
		{"sched.backfill_places", "count"},
		{"sched.backfill_place_ratio", "%"},
		{"server.hit_ms", "ms"},
		{"server.branch_ms", "ms"},
		{"server.telemetry_get_ms", "ms"},
		{"server.telemetry_kb", "KiB"},
		{"server.result_cache_hits", "1/study"},
		{"server.result_cache_misses", "1/study"},
		{"tracegen.cache_hits", "1/study"},
		{"tracegen.cache_misses", "1/study"},
		{"core.shared_events", "1/row"},
		{"cluster.cow_node_copies", "1/row"},
		{"cluster.cow_shard_thaws", "1/row"},
		{"run.samples", "count"},
		{"run.tail_pct", "%"},
		{"run.tail_ms", "ms"},
		{"trace.overhead_ms", "ms"},
	}
	for _, m := range profModules {
		defs = append(defs, metricDef{"prof." + m + ".self_ms", "ms/op"})
	}
	return append(defs, metricDef{"prof.other_share", "%"}, metricDef{"prof.samples", "count"})
}()

// complete fills every metric of the run's table that the workload did not
// set with 0 and rejects any metric outside the table or with a unit other
// than the table's.
func (r *run) complete() error {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	want := map[string]string{}
	for _, d := range defs {
		want[d.name] = d.unit
		if _, ok := r.metrics[d.name]; !ok {
			r.metrics[d.name] = metric{Value: 0, Unit: d.unit}
		}
	}
	for name, m := range r.metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %q (%s) is not in the table", name, m.Unit)
		}
	}
	return nil
}

// keep holds its arguments reachable up to this call, so live_mb counts
// the inputs and the last result.
func keep(xs ...any) { runtime.KeepAlive(xs) }
