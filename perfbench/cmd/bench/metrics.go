package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is a metric's name and unit as BENCHMARK.json declares them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports: what a client of the
// server sees, and what the server process costs.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},    // completed ops ÷ window, the window ending after the drain
	{"p50_us", "us"},        // median command latency, client side
	{"p95_us", "us"},        // 95th percentile command latency, client side
	{"cpu_us_per_op", "us"}, // server user+system CPU over the window ÷ ops
	{"rss_peak_mib", "MiB"}, // server VmHWM
	{"space_amp", "ratio"},  // data directory bytes after the drain ÷ live key+value bytes
	{"setup_s", "s"},        // boot, preload, settle and warm-up
}

// perLayer are the metrics a traced run reports, layer by layer.
var perLayer = []metricDef{
	{"rung.resp_us_per_op", "us"},
	{"rung.core_us_per_op", "us"},
	{"rung.engine_us_per_op", "us"},
	{"server.self_us_per_op", "us"},
	{"server.allocs_per_op", "count"},
	{"server.cmds_per_window", "count"},
	{"server.coalesced_share", "ratio"},
	{"hotcache.hit_ratio", "ratio"},
	{"hotcache.fill_ratio", "ratio"},
	{"hotcache.evictions_per_kop", "count"},
	{"hotcache.invalidations_per_set", "count"},
	{"core.self_us_per_op", "us"},
	{"core.allocs_per_op", "count"},
	{"core.queue_wait_us_per_op", "us"},
	{"core.ops_per_batch", "count"},
	{"core.refused_ops", "count"},
	{"lsm.engine_us_per_write", "us"},
	{"lsm.allocs_per_write", "count"},
	{"lsm.wal_us_per_write", "us"},
	{"lsm.wal_lock_us_per_write", "us"},
	{"lsm.mem_us_per_write", "us"},
	{"lsm.mem_lock_us_per_write", "us"},
	{"lsm.writes_per_wal_io", "count"},
	{"lsm.stall_ms", "ms"},
	{"lsm.slowdown_ms", "ms"},
	{"lsm.flushes", "count"},
	{"lsm.compactions", "count"},
	{"lsm.write_amp", "ratio"},
	{"lsm.compact_read_mib", "MiB"},
	{"lsm.engine_us_per_get", "us"},
	{"lsm.allocs_per_get", "count"},
	{"lsm.table_probes_per_get", "count"},
	{"lsm.bloom_skip_ratio", "ratio"},
	{"lsm.block_cache_hit_ratio", "ratio"},
	{"lsm.block_misses_per_get", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"go.heap_peak_mib", "MiB"},
	{"go.alloc_bytes_per_op", "B"},
	{"trace.overhead_pct", "%"},
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one list of declared metrics.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64)}
}

// set records a value. Names outside the declared list are a bug.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.vals[name] = v
			return
		}
	}
	panic(fmt.Sprintf("metric %q is not declared", name))
}

// ratio sets num/den, or 0 where the denominator is 0 (the workload has
// no operation of that kind).
func (m *metricSet) ratio(name string, num, den float64) {
	if den == 0 {
		m.set(name, 0)
		return
	}
	m.set(name, num/den)
}

// metrics returns every declared metric with its unit, or an error naming
// one that was not measured or is not a finite number.
func (m *metricSet) metrics() (map[string]metric, error) {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printHuman prints one "name value unit" line per metric.
func printHuman(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats and plain types reach here
	}
	return string(b)
}
