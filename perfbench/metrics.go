package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric, its unit and which direction is
// better. bound is the share of the parent's median by which an
// end-to-end metric may worsen before a change counts as a regression;
// per-layer metrics carry none. The lists must match BENCHMARK.json
// (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
	bound              float64
}

const (
	higher = "higher"
	lower  = "lower"
)

var e2eMetrics = []metricDef{
	{"goodput_mbps", "MB/s", higher, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"sim_stream_hours_per_s", "h/s", higher, 0.25},
	{"peak_rss_mb", "MB", lower, 0.20},
	{"setup_s", "s", lower, 0.25},
}

var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"client.latency_p99_ms", "ms", lower, 0},
		{"client.latency_samples", "count", higher, 0},
		{"client.send_blocked_share", "share", lower, 0},
		{"tunnel.conns_accepted", "count", higher, 0},
		{"rpc.first_request_ms_p50", "ms", lower, 0},
		{"rpc.forward_ms_p50", "ms", lower, 0},
		{"rpc.return_ms_p50", "ms", lower, 0},
		{"wire.tx_busy_share", "share", lower, 0},
		{"wire.tx_mbps", "MB/s", higher, 0},
		{"wire.rate_error", "share", lower, 0},
	}
	for _, ph := range wanPhases {
		defs = append(defs, metricDef{"wire.rate_error." + ph.name(), "share", lower, 0})
	}
	defs = append(defs,
		metricDef{"wire.writes_per_mb", "1/MB", lower, 0},
		metricDef{"wire.bytes_per_app_byte", "B/B", lower, 0},
	)
	for _, l := range levelNames {
		defs = append(defs, metricDef{"stream.level_share." + l, "share", levelBetter[l], 0})
	}
	defs = append(defs,
		metricDef{"stream.level_switches", "count", lower, 0},
		metricDef{"stream.probe_skip_share", "share", higher, 0},
		metricDef{"stream.copied_per_byte", "B/B", lower, 0},
		metricDef{"stream.mean_frame_bytes", "B", higher, 0},
		metricDef{"core.probes", "count", lower, 0},
		metricDef{"core.reverts", "count", lower, 0},
		metricDef{"core.wasted_probes", "count", lower, 0},
	)
	for _, c := range codecs {
		for _, k := range kindNames {
			defs = append(defs,
				metricDef{"codec." + c.name + "." + k + ".compress_ns_per_byte", "ns/B", lower, 0},
				metricDef{"codec." + c.name + "." + k + ".decompress_ns_per_byte", "ns/B", lower, 0})
		}
	}
	for _, k := range kindNames {
		defs = append(defs, metricDef{"probe." + k + ".ns_per_byte", "ns/B", lower, 0})
	}
	return append(defs,
		metricDef{"proc.cpu_ns_per_byte", "ns/B", lower, 0},
		metricDef{"proc.alloc_bytes_per_mb", "B/MB", lower, 0},
		metricDef{"proc.gc_cycles", "count", lower, 0},
		metricDef{"sim.alloc_bytes_per_stream_window", "B", lower, 0},
		metricDef{"sim.gc_cycles", "count", lower, 0},
		metricDef{"sim.adaptive.wasted_probes", "count", lower, 0},
		metricDef{"sim.coordinated.flaps", "count", lower, 0},
		metricDef{"ledger.unattributed_share", "share", lower, 0},
		metricDef{"trace.overhead", "share", lower, 0},
	)
}()

// levelNames are the default ladder's levels, in index order.
var levelNames = []string{"no", "light", "medium", "heavy"}

// levelBetter gives each level share's better direction on the workloads
// it speaks for: NO and LIGHT are the rungs that pay on a loopback or
// 1 Gbit/s wire with these codecs; time at MEDIUM or HEAVY costs goodput.
var levelBetter = map[string]string{"no": higher, "light": higher, "medium": lower, "heavy": lower}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place); NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// onSchedule calls at(i) at t0 + i·span/n for i = 1..n and tick() about
// every 200 ms in between, then returns.
func onSchedule(t0 time.Time, span time.Duration, n int, at func(i int), tick func()) {
	for i := 1; i <= n; i++ {
		due := t0.Add(span * time.Duration(i) / time.Duration(n))
		for time.Until(due) > 200*time.Millisecond {
			time.Sleep(200 * time.Millisecond)
			tick()
		}
		time.Sleep(time.Until(due))
		at(i)
	}
}

// timedSetup runs setup setupRepeats times, tears down all but the last
// instance, and returns that instance with the median set-up time. A
// tunnel set-up takes well under a millisecond, so a median of few
// repeats would move with scheduling noise from run to run.
const setupRepeats = 11

func timedSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			teardown(v)
		}
		last = v
	}
	return last, median(times), nil
}
