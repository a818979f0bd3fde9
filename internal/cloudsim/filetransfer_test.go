package cloudsim

import (
	"testing"

	"adaptio/internal/core"
	"adaptio/internal/corpus"
)

func TestIOOpStrings(t *testing.T) {
	for _, op := range IOOps() {
		if op.String() == "" {
			t.Fatalf("op %d has empty label", int(op))
		}
	}
	if IOOp(9).String() == "" || Platform(9).String() == "" {
		t.Fatal("unknown enum labels empty")
	}
}

func TestCPUBreakdownArithmetic(t *testing.T) {
	a := CPUBreakdown{USR: 1, SYS: 2, HIRQ: 3, SIRQ: 4, STEAL: 5}
	if a.Total() != 15 {
		t.Fatalf("Total = %v", a.Total())
	}
	s := a.Scale(2)
	if s.USR != 2 || s.STEAL != 10 || s.Total() != 30 {
		t.Fatalf("Scale = %+v", s)
	}
	sum := a.Add(a)
	if sum.Total() != 30 || sum.SIRQ != 8 {
		t.Fatalf("Add = %+v", sum)
	}
}

func TestRunFileTransferKVMMatchesDiskRate(t *testing.T) {
	res, err := RunFileTransfer(TransferConfig{
		Platform:   KVMParavirt,
		Kind:       ConstantKind(corpus.Low),
		TotalBytes: 10e9,
		Policy:     core.Static(0),
		Profiles:   ReferenceProfiles(),
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// KVM paravirt disk: ~74 MB/s -> 10 GB in ~135 s.
	if res.CompletionSeconds < 110 || res.CompletionSeconds > 165 {
		t.Fatalf("completion %.0f s implausible for a 74 MB/s disk", res.CompletionSeconds)
	}
	if res.DurableSeconds != res.CompletionSeconds {
		t.Fatal("KVM has no host cache: durable must equal completion")
	}
	if res.CacheResidentAtCompletion != 0 {
		t.Fatal("KVM left bytes in a host cache")
	}
}

func TestRunFileTransferXenCacheBehaviour(t *testing.T) {
	res, err := RunFileTransfer(TransferConfig{
		Platform:   XenParavirt,
		Kind:       ConstantKind(corpus.Low),
		TotalBytes: 20e9,
		Policy:     core.Static(0),
		Profiles:   ReferenceProfiles(),
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheResidentAtCompletion <= 0 {
		t.Fatal("XEN run should end with dirty cache")
	}
	if res.DurableSeconds <= res.CompletionSeconds {
		t.Fatal("durable time must exceed VM-visible completion with dirty cache")
	}
	// Compression below the disk drain rate avoids the cache entirely.
	comp, err := RunFileTransfer(TransferConfig{
		Platform:   XenParavirt,
		Kind:       ConstantKind(corpus.High),
		TotalBytes: 20e9,
		Policy:     core.Static(1),
		Profiles:   ReferenceProfiles(),
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp.CacheResidentAtCompletion != 0 {
		t.Fatalf("LIGHT on HIGH keeps wire below disk rate; cache should stay empty, got %d bytes",
			comp.CacheResidentAtCompletion)
	}
}

func TestRunFileTransferDynamicTrace(t *testing.T) {
	windows := 0
	_, err := RunFileTransfer(TransferConfig{
		Platform:   XenParavirt,
		Kind:       ConstantKind(corpus.High),
		TotalBytes: 5e9,
		Policy:     core.MustNew(core.PolicyAlgorithmOne, core.Config{Levels: 4}),
		Profiles:   ReferenceProfiles(),
		Seed:       2,
		Trace:      func(WindowSample) { windows++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if windows == 0 {
		t.Fatal("no trace windows emitted")
	}
}

func TestRunFileTransferGuards(t *testing.T) {
	base := TransferConfig{
		Platform:   KVMParavirt,
		Kind:       ConstantKind(corpus.High),
		TotalBytes: 1e9,
		Policy:     core.Static(0),
		Profiles:   ReferenceProfiles(),
	}
	mutations := []func(*TransferConfig){
		func(c *TransferConfig) { c.TotalBytes = -1 },
		func(c *TransferConfig) { c.Policy = nil },
		func(c *TransferConfig) { c.Kind = nil },
		func(c *TransferConfig) { c.Profiles = nil },
		func(c *TransferConfig) { c.Policy = core.Static(11) },
		func(c *TransferConfig) { c.Platform = Platform(50) },
	}
	for i, m := range mutations {
		cfg := base
		m(&cfg)
		if _, err := RunFileTransfer(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	slow := base
	slow.MaxSimSeconds = 1
	slow.TotalBytes = 1e12
	if _, err := RunFileTransfer(slow); err == nil {
		t.Error("runaway guard did not trigger")
	}
}
