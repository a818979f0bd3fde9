package main

import (
	"fmt"
	"runtime"
	"time"

	"adaptio/internal/scenario"
)

const (
	// fleetScenario is the builtin fleet-sim runs: 1000 streams in four
	// tenant tiers through a 3-hour diurnal cycle with a loss episode.
	fleetScenario = "diurnal-lossy-1000"
	// fleetWarmWindows sizes the shortened copy of the scenario that
	// set-up runs to warm the simulator.
	fleetWarmWindows = 60
)

// fleetInput returns the scenario at the run's seed.
func fleetInput(seed uint64) (*scenario.Scenario, error) {
	sc := scenario.Lookup(fleetScenario)
	if sc == nil {
		return nil, fmt.Errorf("builtin scenario %q is missing", fleetScenario)
	}
	sc.Seed = seed
	return sc, nil
}

// runFleet runs one pass of fleet-sim: scenario.Run of the builtin, back
// to back until the measuring time is spent, every registered claim
// checked at the run's seed.
func runFleet(o options, traced bool) (*pass, error) {
	p := newPass()
	// One variant at a time. On a shared 2-vCPU machine, Parallel = nproc
	// gave a run-time spread over ten seeds of 0.20-0.21 of the median in
	// two sets; interleaved runs varied ±11% with two workers and ±4% with
	// one. Results are byte-identical for every Parallel value.
	opts := scenario.Options{Parallel: 1}
	_, setupS, err := timedSetup(func() (struct{}, error) {
		warm, err := fleetInput(o.seed)
		if err != nil {
			return struct{}{}, err
		}
		warm.Windows = fleetWarmWindows
		_, err = scenario.Run(warm, opts)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, fmt.Errorf("fleet-sim set-up: %w", err)
	}
	p.metrics["setup_s"] = setupS
	runtime.GC() // start the measuring time without set-up garbage

	var (
		durations, hoursPerS []float64
		simBytes             int64
		streamWindows        float64
		last                 *scenario.Result
	)
	span := o.seconds
	before := sampleProc()
	// Start another run while it is expected to end no later than half a
	// run past the measuring time.
	for len(durations) == 0 || time.Since(before.at)+time.Duration(durations[len(durations)-1]*float64(time.Millisecond))/2 < span {
		sc, err := fleetInput(o.seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := scenario.Run(sc, opts)
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("fleet-sim run: %w", err)
		}
		p.attempted += int64(len(res.Claims))
		if len(res.Claims) == 0 {
			p.attempted++
			p.fail("%s registered no claims", fleetScenario)
		}
		for _, c := range res.Claims {
			if !c.Pass {
				p.fail("claim %s fails at seed %d: %s", c.Name, o.seed, c.Detail)
			}
		}
		var app int64
		for _, v := range res.Variants {
			app += v.AppBytes
		}
		streamHours := float64(res.Streams) * res.SimulatedSeconds / 3600 * float64(len(res.Variants))
		durations = append(durations, ms(d))
		hoursPerS = append(hoursPerS, streamHours/d.Seconds())
		simBytes += app
		streamWindows += float64(res.Streams) * float64(res.Windows) * float64(len(res.Variants))
		last = res
	}
	after := sampleProc()
	p.headline = median(append([]float64(nil), hoursPerS...))
	if !traced {
		p.metrics["sim_stream_hours_per_s"] = p.headline
		// The simulated adaptive fleet's goodput: the figure a user of the
		// simulator reads, deterministic for a seed.
		p.metrics["goodput_mbps"] = last.Variant("adaptive").GoodputMBps
		p.metrics["latency_p50_ms"] = median(durations)
		p.metrics["peak_rss_mb"] = peakRSSMB()
		return p, nil
	}
	reportProc(p, before, after, simBytes)
	p.metrics["sim.alloc_bytes_per_stream_window"] = float64(after.alloc-before.alloc) / streamWindows
	p.metrics["sim.gc_cycles"] = float64(after.gc - before.gc)
	if v := last.Variant("adaptive"); v != nil {
		p.metrics["sim.adaptive.wasted_probes"] = float64(v.WastedProbes)
	}
	if v := last.Variant("coordinated"); v != nil {
		p.metrics["sim.coordinated.flaps"] = float64(v.Flaps)
	}
	return p, nil
}
