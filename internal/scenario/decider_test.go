package scenario

import (
	"testing"

	"adaptio/internal/core"
)

// The scenario half of the decider acceptance bound: across the six built-in
// scenarios, each learned policy must stay within-or-better on the adaptive
// variant's converged goodput per scenario AND waste strictly fewer probes
// than AlgorithmOne in aggregate — and keep every builtin's claims passing.
// (Per-scenario waste is allowed to tie: a single builtin can be a wash, the
// aggregate cannot.) The never-probe sentinel (the adaptive variant pinned
// at NO by RigPinAdaptiveNO) proves the goodput axis bites.

// deciderGoodputTolerance is how far below AlgorithmOne's goodput a learned
// policy may land on any single builtin. Measured slack: the learned
// policies sit within 3% per scenario; 5% leaves room for curve retuning
// without admitting a policy that buys probe savings with throughput.
const deciderGoodputTolerance = 0.05

// runAdaptive runs one builtin under the given policy and returns the
// adaptive variant plus the overall claim outcome.
func runAdaptive(t *testing.T, name, policy string) (*VariantResult, bool) {
	t.Helper()
	sc := Lookup(name)
	if sc == nil {
		t.Fatalf("unknown builtin %q", name)
	}
	if policy != core.PolicyAlgorithmOne {
		sc.Decider = policy
	}
	res, err := Run(sc, Options{Parallel: 6})
	if err != nil {
		t.Fatalf("%s under %s: %v", name, policy, err)
	}
	v := res.Variant("adaptive")
	if v == nil {
		t.Fatalf("%s under %s: no adaptive variant", name, policy)
	}
	return v, res.ClaimsPass()
}

func builtinNames(t *testing.T) []string {
	var names []string
	for _, sc := range Builtins() {
		if testing.Short() && sc.Name == "diurnal-lossy-1000" {
			continue // nightly-scale scenario, skipped under -short
		}
		names = append(names, sc.Name)
	}
	return names
}

func TestBuiltinsDeciderBound(t *testing.T) {
	names := builtinNames(t)
	base := make(map[string]*VariantResult, len(names))
	baseWasted := 0
	for _, name := range names {
		v, _ := runAdaptive(t, name, core.PolicyAlgorithmOne)
		base[name] = v
		baseWasted += v.WastedProbes
	}
	if baseWasted == 0 {
		t.Fatal("AlgorithmOne wasted no probes across the builtins — the probe-economy axis is vacuous")
	}
	for _, policy := range []string{core.PolicyBandit, core.PolicyEWMA} {
		t.Run(policy, func(t *testing.T) {
			wasted := 0
			for _, name := range names {
				v, claimsPass := runAdaptive(t, name, policy)
				if !claimsPass {
					t.Errorf("%s: builtin claims fail under %s", name, policy)
				}
				if floor := base[name].GoodputMBps * (1 - deciderGoodputTolerance); v.GoodputMBps < floor {
					t.Errorf("%s: goodput %.2f MB/s below %.2f (AlgorithmOne %.2f minus %.0f%%)",
						name, v.GoodputMBps, floor, base[name].GoodputMBps, deciderGoodputTolerance*100)
				}
				wasted += v.WastedProbes
			}
			if wasted >= baseWasted {
				t.Errorf("aggregate wasted probes %d not strictly below AlgorithmOne's %d", wasted, baseWasted)
			}
		})
	}
}

// TestCheatStickFailsScenarioBound is the sentinel leg: a never-probe
// policy (the adaptive variant pinned at NO by RigPinAdaptiveNO) has
// perfect probe economy and must be rejected by the goodput axis on every
// builtin. A hetfleet run suffices — it is the cheapest builtin where every
// corpus kind rewards some compression.
func TestCheatStickFailsScenarioBound(t *testing.T) {
	base, _ := runAdaptive(t, "hetfleet", core.PolicyAlgorithmOne)
	res, err := Run(Lookup("hetfleet"), Options{Parallel: 6, Rig: RigPinAdaptiveNO})
	if err != nil {
		t.Fatalf("hetfleet pinned at NO: %v", err)
	}
	cheat := res.Variant("adaptive")
	if cheat.WastedProbes != 0 || cheat.Probes != 0 {
		t.Fatalf("pinned policy probed (%d probes, %d wasted); the sentinel must never probe",
			cheat.Probes, cheat.WastedProbes)
	}
	if floor := base.GoodputMBps * (1 - deciderGoodputTolerance); cheat.GoodputMBps >= floor {
		t.Fatalf("pinned goodput %.2f MB/s is within %.0f%% of AlgorithmOne's %.2f — the goodput axis has no teeth",
			cheat.GoodputMBps, deciderGoodputTolerance*100, base.GoodputMBps)
	}
}

// TestScenarioDeciderField pins the DSL wiring: an unknown policy is a typed
// validation error, and a valid one lands in the artifact header.
func TestScenarioDeciderField(t *testing.T) {
	sc := Lookup("hetfleet")
	sc.Decider = "nonsense"
	if err := sc.Validate(); err == nil {
		t.Fatal("unknown decider name validated")
	}
	sc.Decider = core.PolicyEWMA
	sc.Windows = 40
	res, err := Run(sc, Options{Parallel: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Decider != core.PolicyEWMA {
		t.Fatalf("result decider = %q, want %q", res.Decider, core.PolicyEWMA)
	}
}
