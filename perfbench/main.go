// Command perfbench is the repository benchmark. It drives the real
// adaptive-compression stack from one process through its public entry
// points — the entry/exit tunnel pair (tunnel.ListenEntry/ListenExit) on
// loopback and the fleet simulator (scenario.Run) — checks every output, and
// prints one JSON result line. NOTES.md explains each workload and maps every
// per-layer metric to the end-to-end metric it should move.
//
// Build and run from the repository root:
//
//	bash perfbench/run.sh --workload wan-bulk --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics of one untraced pass. --trace 1
// runs an untraced pass and then a traced one, and prints the per-layer
// metrics of the traced pass plus trace.overhead, the relative loss of the
// workload's headline metric between the two.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
}

// pass is what one measured pass of a workload produces.
type pass struct {
	mu                sync.Mutex // guards attempted, failed and causes
	attempted, failed int64
	// causes names what failed, one line each; printed to stderr.
	causes []string
	// metrics holds the end-to-end metrics of an untraced pass and the
	// per-layer metrics of a traced one.
	metrics map[string]float64
	// headline is the workload's headline metric (higher is better), the
	// base of trace.overhead.
	headline float64
}

func newPass() *pass { return &pass{metrics: map[string]float64{}} }

// fail counts one failed operation and records its cause.
func (p *pass) fail(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if len(p.causes) < 20 {
		p.causes = append(p.causes, fmt.Sprintf(format, args...))
	}
}

// workloadFunc runs one pass. traced selects the instrumented variant.
type workloadFunc func(o options, traced bool) (*pass, error)

var workloads = map[string]workloadFunc{
	"wan-bulk":  func(o options, traced bool) (*pass, error) { return runBulk(o, true, traced) },
	"lan-bulk":  func(o options, traced bool) (*pass, error) { return runBulk(o, false, traced) },
	"rpc":       runRPC,
	"fleet-sim": runFleet,
}

// passDeadline bounds one pass beyond its measuring time, so a hung relay
// ends the run as a failure instead of stalling whoever runs it.
const passDeadline = 60 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: wan-bulk, lan-bulk, rpc or fleet-sim")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "measuring time of one pass, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	fmt.Println("machine:", fingerprint())

	untraced, err := runPass(wl, o, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, defs := untraced, e2eMetrics
	attempted, failed := untraced.attempted, untraced.failed
	if *trace == 1 {
		traced, err := runPass(wl, o, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		attempted += traced.attempted
		failed += traced.failed
		if untraced.headline > 0 {
			traced.metrics["trace.overhead"] = (untraced.headline - traced.headline) / untraced.headline
		}
		out, defs = traced, layerMetrics
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := out.metrics[d.name]
		if d.bound > 0 && !(v > 0) {
			// An end-to-end metric is never 0: a missing one means the
			// pass measured nothing.
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: end-to-end metric %s is %v\n", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runPass runs one pass under passDeadline and reports its failures.
func runPass(wl workloadFunc, o options, traced bool) (*pass, error) {
	type outcome struct {
		p   *pass
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		p, err := wl(o, traced)
		done <- outcome{p, err}
	}()
	t := time.NewTimer(o.seconds + passDeadline)
	defer t.Stop()
	select {
	case r := <-done:
		if r.err != nil {
			return nil, r.err
		}
		for _, c := range r.p.causes {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", c)
		}
		return r.p, nil
	case <-t.C:
		return nil, fmt.Errorf("%s pass (traced=%v) did not finish within %v of its measuring time: hung", o.workload, traced, passDeadline)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint names the machine a result came from.
func fingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		kernel = utsString(u.Sysname[:]) + " " + utsString(u.Release[:])
	}
	b, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  model,
		"go":         runtime.Version(),
		"kernel":     kernel,
	})
	return string(b)
}

func utsString(f []int8) string {
	var sb strings.Builder
	for _, c := range f {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}
