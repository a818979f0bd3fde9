package cloudsim

import (
	"math"
	"testing"
	"testing/quick"

	"adaptio/internal/core"
	"adaptio/internal/corpus"
)

// TestTransferInvariantsProperty checks structural invariants over random
// (kind, background, scheme, seed) draws: volume accounting is exact,
// compression never inflates the wire, time accounting is consistent.
func TestTransferInvariantsProperty(t *testing.T) {
	prop := func(kindSel, bgSel, schemeSel uint8, seed uint64) bool {
		kind := corpus.Kind(int(kindSel) % 3)
		bg := int(bgSel) % 5
		var scheme core.Policy
		if schemeSel%5 == 4 {
			scheme = core.MustNew(core.PolicyAlgorithmOne, core.Config{Levels: 4})
		} else {
			scheme = core.Static(int(schemeSel) % 4)
		}
		res, err := RunTransfer(TransferConfig{
			Platform:   KVMParavirt,
			Kind:       ConstantKind(kind),
			TotalBytes: 5e9,
			Background: bg,
			Policy:     scheme,
			Profiles:   ReferenceProfiles(),
			Seed:       seed,
		})
		if err != nil {
			return false
		}
		if res.AppBytes != 5e9 {
			return false
		}
		if res.WireBytes > res.AppBytes {
			return false // ratio <= 1 for every profile level
		}
		var levelSum float64
		for _, s := range res.LevelSeconds {
			levelSum += s
		}
		if math.Abs(levelSum-res.CompletionSeconds) > 1e-6*res.CompletionSeconds {
			return false
		}
		return res.CompletionSeconds > 0 && res.Windows > 0
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestContentionMonotoneProperty: for network-bound configurations (NO
// compression), more co-located connections never make the transfer faster.
func TestContentionMonotoneProperty(t *testing.T) {
	prop := func(kindSel uint8, seed uint64) bool {
		kind := corpus.Kind(int(kindSel) % 3)
		prev := 0.0
		for bg := 0; bg <= 4; bg++ {
			res, err := RunTransfer(TransferConfig{
				Platform:   KVMParavirt,
				Kind:       ConstantKind(kind),
				TotalBytes: 10e9,
				Background: bg,
				Policy:     core.Static(0),
				Profiles:   ReferenceProfiles(),
				Seed:       seed,
			})
			if err != nil {
				return false
			}
			// Allow 3% slack for the independent noise draws.
			if res.CompletionSeconds < prev*0.97 {
				return false
			}
			prev = res.CompletionSeconds
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicBoundedByStaticsProperty: the adaptive scheme can probe, but it
// can never do better than the best static level by more than noise, nor
// worse than the worst.
func TestDynamicBoundedByStaticsProperty(t *testing.T) {
	prop := func(kindSel, bgSel uint8, seed uint64) bool {
		kind := corpus.Kind(int(kindSel) % 3)
		bg := int(bgSel) % 4
		best, worst := math.Inf(1), 0.0
		for lvl := 0; lvl < 4; lvl++ {
			res, err := RunTransfer(TransferConfig{
				Platform:   KVMParavirt,
				Kind:       ConstantKind(kind),
				TotalBytes: 10e9,
				Background: bg,
				Policy:     core.Static(lvl),
				Profiles:   ReferenceProfiles(),
				Seed:       seed,
			})
			if err != nil {
				return false
			}
			best = math.Min(best, res.CompletionSeconds)
			worst = math.Max(worst, res.CompletionSeconds)
		}
		dyn, err := RunTransfer(TransferConfig{
			Platform:   KVMParavirt,
			Kind:       ConstantKind(kind),
			TotalBytes: 10e9,
			Background: bg,
			Policy:     core.MustNew(core.PolicyAlgorithmOne, core.Config{Levels: 4}),
			Profiles:   ReferenceProfiles(),
			Seed:       seed,
		})
		if err != nil {
			return false
		}
		return dyn.CompletionSeconds >= best*0.9 && dyn.CompletionSeconds <= worst*1.1
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestNetShareMonotone: the calibrated share table decreases monotonically
// and hands off smoothly to the extrapolation formula.
func TestNetShareMonotone(t *testing.T) {
	prev := NetShare(0)
	if prev != 1 {
		t.Fatalf("NetShare(0) = %v", prev)
	}
	for k := 1; k <= 12; k++ {
		s := NetShare(k)
		if s <= 0 || s >= prev {
			t.Fatalf("NetShare(%d) = %v, prev %v: not strictly decreasing", k, s, prev)
		}
		prev = s
	}
	if CPUShare(0) != 1 || CPUShare(3) >= CPUShare(1) {
		t.Fatal("CPUShare not monotone")
	}
}
