package tunnel_test

import (
	"math"
	"slices"
	"testing"

	"adaptio/internal/core"
	"adaptio/internal/tunnel"
)

// decisionTrace drives p through a fixed, level-dependent rate sequence and
// returns the levels it chose. Heavier levels are slower and the rate
// wobbles, so probes keep failing and a stochastic policy's seeded
// exploration shapes the trace.
func decisionTrace(p core.Policy) []int {
	levels := make([]int, 0, 600)
	for i := 0; i < 600; i++ {
		rate := 100e6 / float64(1+p.Level()) * (1 + 0.15*math.Sin(float64(i)*0.7))
		levels = append(levels, p.Observe(core.Window{Rate: rate}))
	}
	return levels
}

// TestDeciderPolicySeedsPerEndpoint: the per-connection seed derivation
// lives in the factory, so two endpoints built from equal flags give their
// i-th connections the same seed — even while another endpoint in the same
// process opens connections in between — and distinct connections of one
// endpoint get distinct seeds.
func TestDeciderPolicySeedsPerEndpoint(t *testing.T) {
	cfg := core.Config{Levels: 4, Seed: 42}
	entry, err := tunnel.DeciderPolicy(core.PolicyBandit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exit, err := tunnel.DeciderPolicy(core.PolicyBandit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var traces [][]int
	for i := 0; i < 3; i++ {
		a, releaseA := entry()
		entry() // a second connection on the first endpoint only
		b, releaseB := exit()
		ta, tb := decisionTrace(a), decisionTrace(b)
		releaseA()
		releaseB()
		if !slices.Equal(ta, tb) {
			t.Fatalf("connection %d: endpoints built from equal flags made different decisions", i)
		}
		exit() // keep both endpoints at the same connection index
		traces = append(traces, ta)
	}
	if slices.Equal(traces[0], traces[1]) && slices.Equal(traces[1], traces[2]) {
		t.Fatal("distinct connections made identical decisions; per-connection seeds are not distinct")
	}
}

func TestDeciderPolicyRejectsUnknownName(t *testing.T) {
	if _, err := tunnel.DeciderPolicy("nosuch", core.Config{Levels: 4}); err == nil {
		t.Fatal("unknown policy name accepted")
	}
	if _, err := tunnel.DeciderPolicy(core.PolicyBandit, core.Config{}); err == nil {
		t.Fatal("zero-level config accepted")
	}
}
