package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptio/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestAlgorithmOneGoldenTrace pins the paper-faithful decider's decision
// sequence byte for byte. The pluggable-decider refactor (and anything that
// touches internal/core after it) must keep AlgorithmOne's decisions
// identical to the pre-refactor code: this golden file was generated from
// the pre-interface implementation and is the contract.
//
// Two trace families are pinned:
//
//   - open-loop: a synthetic rate sequence (steps, ramps, noise) fed
//     verbatim, so the pin covers every Algorithm 1 branch independently of
//     any environment model;
//   - closed-loop: the convergence suite's environment, where the rate the
//     decider sees depends on the level it chose, so drift in either
//     direction compounds and cannot hide.
func TestAlgorithmOneGoldenTrace(t *testing.T) {
	var sb strings.Builder

	configs := []struct {
		label string
		cfg   Config
	}{
		{"paper", Config{Levels: 4}},
		{"alpha=0.1", Config{Levels: 4, Alpha: 0.1}},
		{"nobackoff", Config{Levels: 4, DisableBackoff: true}},
		{"norevert", Config{Levels: 4, DisableRevert: true}},
		{"cap=3", Config{Levels: 4, MaxBackoffExp: 3}},
		{"levels=6", Config{Levels: 6}},
	}
	for _, c := range configs {
		d := mustAlgOne(c.cfg)
		fmt.Fprintf(&sb, "== open-loop %s ==\n", c.label)
		for i, r := range goldenOpenLoopRates() {
			lvl := d.Observe(Window{Rate: r})
			dec := d.LastDecision()
			fmt.Fprintf(&sb, "%03d rate=%.0f %s %d->%d lvl=%d bck=%d\n",
				i, r, dec.Kind, dec.From, dec.To, lvl, dec.Backoff)
		}
		ps := d.PolicyStats()
		probes, reverts, rewards, observed := ps.Probes, ps.Reverts, ps.Rewards, ps.Observed
		fmt.Fprintf(&sb, "stats probes=%d reverts=%d rewards=%d observed=%d\n",
			probes, reverts, rewards, observed)
	}

	for _, seed := range []uint64{1, 7, 2011} {
		d := mustAlgOne(Config{Levels: 4})
		fmt.Fprintf(&sb, "== closed-loop seed=%d ==\n", seed)
		env := convEnv()
		rng := xrand.New(seed)
		phases := []phase{
			{shareMBps: 100, windows: 60},
			{shareMBps: 10, windows: 60},
			{shareMBps: 100, windows: 60},
		}
		i := 0
		for _, ph := range phases {
			for w := 0; w < ph.windows; w++ {
				r := env.rate(d.Level(), ph.shareMBps) * 1e6 * rng.NoiseFactor(0.02)
				lvl := d.Observe(Window{Rate: r})
				dec := d.LastDecision()
				fmt.Fprintf(&sb, "%03d %s %d->%d lvl=%d bck=%d\n",
					i, dec.Kind, dec.From, dec.To, lvl, dec.Backoff)
				i++
			}
		}
		ps := d.PolicyStats()
		probes, reverts, rewards, observed := ps.Probes, ps.Reverts, ps.Rewards, ps.Observed
		fmt.Fprintf(&sb, "stats probes=%d reverts=%d rewards=%d observed=%d\n",
			probes, reverts, rewards, observed)
	}

	got := sb.String()
	path := filepath.Join("testdata", "algone_decisions.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("AlgorithmOne decision trace deviates from the pinned pre-refactor behaviour.\n"+
			"First differing line: %s\n(If this change is intentional, it breaks the paper-faithful "+
			"default policy; re-generate only with a documented reason: go test ./internal/core -run Golden -update)",
			firstDiffLine(got, string(want)))
	}
}

// firstDiffLine locates the first line where two multi-line strings differ.
func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: got %q want %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length mismatch: got %d lines, want %d", len(al), len(bl))
}

// goldenOpenLoopRates is the synthetic open-loop rate sequence: a stable
// regime, an out-of-band step down, a ramp back up, an in-band oscillation
// (probing continues on backoff alone), and a noisy tail. Values are plain
// arithmetic so the sequence can never drift.
func goldenOpenLoopRates() []float64 {
	var rates []float64
	rng := xrand.New(0xA16)
	for i := 0; i < 40; i++ { // stable at 100 MB/s
		rates = append(rates, 100e6*rng.NoiseFactor(0.02))
	}
	for i := 0; i < 30; i++ { // step down to 10 MB/s
		rates = append(rates, 10e6*rng.NoiseFactor(0.02))
	}
	for i := 0; i < 30; i++ { // ramp 10 -> 80 MB/s
		rates = append(rates, (10e6+70e6*float64(i)/29)*rng.NoiseFactor(0.01))
	}
	for i := 0; i < 40; i++ { // in-band square wave 50/55 MB/s
		v := 50e6
		if (i/10)%2 == 1 {
			v = 55e6
		}
		rates = append(rates, v)
	}
	for i := 0; i < 20; i++ { // noisy tail straddling the band edge
		rates = append(rates, 60e6*rng.NoiseFactor(0.15))
	}
	return rates
}
