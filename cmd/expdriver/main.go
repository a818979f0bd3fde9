// Command expdriver regenerates the paper's evaluation: every figure and
// table of "Evaluating Adaptive Compression to Mitigate the Effects of
// Shared I/O in Clouds" (IPDPS 2011) plus the ablation studies listed in
// DESIGN.md. With no flags it runs everything at the paper's 50 GB volume.
//
// Usage:
//
//	expdriver [-fig1] [-fig2] [-fig3] [-table2] [-fig4] [-fig5] [-fig6]
//	          [-ablations] [-calibrate] [-gb N] [-runs N] [-seed N]
//	          [-live-profiles]
//
// -live-profiles recalibrates the transfer model from this machine's own
// codecs instead of the paper-derived reference profiles (Table II only
// reports the reference profile by default so output is reproducible).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adaptio/internal/block"
	"adaptio/internal/cloudsim"
	"adaptio/internal/experiments"
	"adaptio/internal/loadgen"
	"adaptio/internal/obs"
	"adaptio/internal/tunnel"
)

func main() {
	var (
		fig1       = flag.Bool("fig1", false, "Figure 1: CPU utilization accuracy")
		fig2       = flag.Bool("fig2", false, "Figure 2: network throughput distribution")
		fig3       = flag.Bool("fig3", false, "Figure 3: file write throughput distribution")
		table2     = flag.Bool("table2", false, "Table II: completion time grid")
		fig4       = flag.Bool("fig4", false, "Figure 4: adaptivity trace (HIGH, no load)")
		fig5       = flag.Bool("fig5", false, "Figure 5: adaptivity trace (LOW, 2 connections)")
		fig6       = flag.Bool("fig6", false, "Figure 6: compressibility switching")
		ablations  = flag.Bool("ablations", false, "ablations A1-A5")
		claims     = flag.Bool("claims", false, "paper claims checklist (PASS/FAIL per quantitative claim)")
		calibrate  = flag.Bool("calibrate", false, "live codec calibration")
		gb         = flag.Float64("gb", 50, "data volume per transfer in GB (decimal)")
		runs       = flag.Int("runs", 5, "repetitions per Table II cell")
		seed       = flag.Uint64("seed", 2011, "random seed")
		liveProf   = flag.Bool("live-profiles", false, "drive Table II with profiles measured live from this repo's codecs instead of the paper-derived reference")
		csvDir     = flag.String("csv", "", "also write each experiment's raw data as CSV into this directory")
		scenario   = flag.String("scenario", "", "run a runtime scenario instead of the paper experiments: 'soak' (docs/scaling.md), 'sharednic' (docs/coordination.md), a built-in scenario-DSL name (diurnal, heavytail, lossy, flaps, hetfleet, diurnal-lossy-1000 — docs/scenarios.md), or a path to a scenario JSON file")
		decider    = flag.String("decider", "", "for scenario-DSL runs: level-selection policy driving the adaptive variant (algone, bandit, ewma — docs/deciders.md)")
		dmatrix    = flag.Bool("decider-matrix", false, "run the Table II completion-time matrix under every registered decider policy plus the never-probe sentinel (docs/deciders.md)")
		jsonOut    = flag.String("json-out", "", "for -decider-matrix: write the benchfmt JSON artifact to this file (schema of BENCH_decider.json, gated by cmd/benchdiff -mode decider)")
		streams    = flag.Int("streams", 128, "fleet size for -scenario sharednic")
		metricsOut = flag.String("metrics-out", "", "for runtime scenarios: write the JSON result artifact to this file (CI artifact)")
		parallel   = flag.Int("parallel", 4, "for scenario-DSL runs: variants simulated concurrently (results are byte-identical for any value)")
		rig        = flag.String("rig", "", "for scenario-DSL runs: apply a sentinel property-breaker (test use only; see internal/scenario.Rig)")
		maxWall    = flag.Duration("max-wall", 0, "for scenario-DSL runs: fail unless the run finishes within this wall-clock budget (0 = no budget)")
	)
	flag.Parse()

	if *dmatrix {
		os.Exit(runDeciderMatrix(*seed, *jsonOut))
	}
	switch *scenario {
	case "":
		if *decider != "" {
			fmt.Fprintln(os.Stderr, "expdriver: -decider only applies to scenario-DSL runs (-scenario <name|file>)")
			os.Exit(2)
		}
	case "soak":
		os.Exit(runSoak(*seed))
	case "sharednic":
		os.Exit(runSharedNIC(*seed, *streams, *metricsOut))
	default:
		os.Exit(runScenario(*scenario, *seed, *parallel, *rig, *decider, *metricsOut, *maxWall))
	}

	// Process-wide metrics: the experiments run in-process, so the buffer
	// arena's counters summarize the run's data-plane churn. Printed at the
	// end of the run.
	reg := obs.NewRegistry()
	block.PublishMetrics(reg.Scope("block"))
	exitCode := 0

	saveCSV := func(name, content string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: csv dir: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: write %s: %v\n", path, err)
			os.Exit(1)
		}
	}

	all := !(*fig1 || *fig2 || *fig3 || *table2 || *fig4 || *fig5 || *fig6 || *ablations || *claims || *calibrate)
	volume := int64(*gb * 1e9)

	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "expdriver: %s: %v\n", what, err)
		os.Exit(1)
	}

	if all || *fig1 {
		rows, err := experiments.Fig1CPUAccuracy(120, *seed)
		if err != nil {
			fail("fig1", err)
		}
		fmt.Print(experiments.RenderFig1(rows))
		saveCSV("fig1_cpu_accuracy", experiments.CSVFig1(rows))
	}
	if all || *fig2 {
		rows, err := experiments.Fig2NetThroughput(volume, *seed)
		if err != nil {
			fail("fig2", err)
		}
		fmt.Print(experiments.RenderDist("Figure 2: network I/O throughput in the sending VM", "MBit/s", rows))
		saveCSV("fig2_net_throughput", experiments.CSVDist(rows))
		fmt.Println()
	}
	if all || *fig3 {
		rows, err := experiments.Fig3FileWriteThroughput(volume, *seed)
		if err != nil {
			fail("fig3", err)
		}
		fmt.Print(experiments.RenderDist("Figure 3: file I/O throughput (write) in the VM", "MB/s", rows))
		saveCSV("fig3_file_write", experiments.CSVDist(rows))
		fmt.Println()
	}
	if all || *table2 {
		cfg := experiments.TableIIConfig{
			TotalBytes: volume,
			Runs:       *runs,
			Platform:   cloudsim.KVMParavirt, // the paper's evaluation platform
			Seed:       *seed,
		}
		if *liveProf {
			ms, profiles, err := experiments.Calibrate(0)
			if err != nil {
				fail("live calibration", err)
			}
			fmt.Print(experiments.RenderCalibration(ms))
			fmt.Println("(Table II below uses the live-calibrated profiles)")
			cfg.Profiles = profiles
		}
		res, err := experiments.TableII(cfg)
		if err != nil {
			fail("table2", err)
		}
		fmt.Print(res.Render())
		saveCSV("table2_completion_times", res.CSVTableII())
	}
	if all || *fig4 {
		tr, err := experiments.Fig4Trace(volume, *seed)
		if err != nil {
			fail("fig4", err)
		}
		fmt.Print(tr.Render("Figure 4: DYNAMIC on HIGH data, no background traffic", experiments.LevelNames, 100))
		saveCSV("fig4_trace", experiments.CSVTrace(tr))
		fmt.Println()
	}
	if all || *fig5 {
		tr, err := experiments.Fig5Trace(volume, *seed)
		if err != nil {
			fail("fig5", err)
		}
		fmt.Print(tr.Render("Figure 5: DYNAMIC on LOW data, two background connections", experiments.LevelNames, 100))
		saveCSV("fig5_trace", experiments.CSVTrace(tr))
		fmt.Println()
	}
	if all || *fig6 {
		tr, err := experiments.Fig6Switch(volume, *seed)
		if err != nil {
			fail("fig6", err)
		}
		fmt.Print(tr.Render("Figure 6: HIGH/LOW alternating every 10 GB", experiments.LevelNames, 100))
		saveCSV("fig6_trace", experiments.CSVTrace(tr))
		fmt.Println()
	}
	if all || *ablations {
		a1, err := experiments.AblationAlpha(nil, volume, *seed)
		if err != nil {
			fail("ablation A1", err)
		}
		fmt.Print(experiments.RenderAblation("Ablation A1: tolerance band alpha (MODERATE, 2 conns)", a1))
		saveCSV("ablation_a1_alpha", experiments.CSVAblation(a1))
		fmt.Println()
		a2, err := experiments.AblationWindow(nil, volume, *seed)
		if err != nil {
			fail("ablation A2", err)
		}
		fmt.Print(experiments.RenderAblation("Ablation A2: decision window t (Fig 6 workload)", a2))
		saveCSV("ablation_a2_window", experiments.CSVAblation(a2))
		fmt.Println()
		a3, err := experiments.AblationBackoff(volume, *seed)
		if err != nil {
			fail("ablation A3", err)
		}
		fmt.Print(experiments.RenderAblation("Ablation A3: exponential backoff (HIGH, no load)", a3))
		saveCSV("ablation_a3_backoff", experiments.CSVAblation(a3))
		fmt.Println()
		a4, err := experiments.AblationBaselines(volume, *seed)
		if err != nil {
			fail("ablation A4", err)
		}
		fmt.Print(experiments.RenderBaselines(a4))
		saveCSV("ablation_a4_baselines", experiments.CSVBaselines(a4))
		fmt.Println()
		a5, err := experiments.FileChannel(volume, *seed)
		if err != nil {
			fail("ablation A5", err)
		}
		fmt.Print(experiments.RenderFileChannel(a5))
		saveCSV("ablation_a5_filechannel", experiments.CSVFileChannel(a5))
		fmt.Println()
		a6, err := experiments.AblationLadder(volume, *seed)
		if err != nil {
			fail("ablation A6", err)
		}
		fmt.Print(experiments.RenderLadder(a6))
		fmt.Println()
	}
	if all || *claims {
		cl, err := experiments.VerifyClaims(volume, *seed)
		if err != nil {
			fail("claims", err)
		}
		fmt.Print(experiments.RenderClaims(cl))
		fmt.Println()
		if !experiments.AllPass(cl) {
			exitCode = 1
		}
	}
	if all || *calibrate {
		ms, _, err := experiments.Calibrate(0)
		if err != nil {
			fail("calibrate", err)
		}
		fmt.Print(experiments.RenderCalibration(ms))
		saveCSV("codec_calibration", experiments.CSVCalibration(ms))
	}

	fmt.Println("--- end-of-run process metrics ---")
	fmt.Print(reg.RenderText())
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// runSoak is the `-scenario soak` entry point: the repeatable
// soak/overload experiment of docs/scaling.md at expdriver scale — an
// in-process echo sink behind a bounded entry/exit tunnel pair, hammered by
// the seeded load generator. It returns the process exit code: non-zero on
// broken transfers, zero completions, or leaked goroutines after drain.
func runSoak(seed uint64) int {
	reg := obs.NewRegistry()
	block.PublishMetrics(reg.Scope("block"))

	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: echo sink: %v\n", err)
		return 1
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
				if tc, ok := conn.(*net.TCPConn); ok {
					tc.CloseWrite()
				}
			}()
		}
	}()

	const (
		workers  = 192
		maxConns = 48
	)
	tcfg := tunnel.Config{Policy: tunnel.StaticPolicy(1), ShutdownGrace: 5 * time.Second}
	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", ln.Addr().String(), tcfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: exit: %v\n", err)
		return 1
	}
	entryCfg := tcfg
	entryCfg.MaxConns = maxConns
	entryCfg.AcceptQueue = maxConns
	entryCfg.Obs = reg.Scope("tunnel")
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), entryCfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: entry: %v\n", err)
		return 1
	}

	fmt.Printf("Soak scenario: %d workers vs MaxConns=%d tunnel pair, 5 s, seed %d\n", workers, maxConns, seed)
	report, err := loadgen.Run(context.Background(), loadgen.Config{
		Addr:       entry.Addr().String(),
		Conns:      workers,
		Duration:   5 * time.Second,
		Seed:       seed,
		MinPayload: 2 << 10,
		MaxPayload: 32 << 10,
		Verify:     true,
		Obs:        reg.Scope("loadgen"),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		return 1
	}
	fmt.Println(report.String())

	entry.Close()
	exit.Close()
	ln.Close()
	leaked := 0
	deadline := time.Now().Add(3 * time.Second)
	for {
		leaked = runtime.NumGoroutine() - baseline
		if leaked <= 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	fmt.Println("--- end-of-run process metrics ---")
	fmt.Print(reg.RenderText())

	// Copy-accounting gate (docs/performance.md, "Zero-copy relay"): at
	// LIGHT the relay pays ~1 user-space copy per byte (the codec
	// transform); the pre-refactor staging loop paid ~2. Failing at 1.5
	// catches a reintroduced staging copy without flaking on small-block
	// noise.
	copyRatio := 0.0
	if m, ok := reg.Get("tunnel.relay.bytes_copied_per_byte_relayed").(*obs.FloatFuncMetric); ok {
		copyRatio = m.Value()
	}
	fmt.Printf("soak: bytes_copied_per_byte_relayed = %.3f\n", copyRatio)

	switch {
	case report.Completed == 0:
		fmt.Println("soak: FAIL: zero completed cycles")
		return 1
	case report.Failed > 0:
		fmt.Printf("soak: FAIL: %d broken transfers\n", report.Failed)
		return 1
	case leaked > 0:
		fmt.Printf("soak: FAIL: %d goroutine(s) leaked after drain\n", leaked)
		return 1
	case copyRatio >= 1.5:
		fmt.Printf("soak: FAIL: copy ratio %.3f — a relay staging copy is back\n", copyRatio)
		return 1
	}
	fmt.Println("soak: PASS")
	return 0
}
