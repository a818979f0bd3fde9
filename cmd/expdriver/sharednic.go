package main

import (
	"encoding/json"
	"fmt"
	"os"

	"adaptio/internal/cloudsim"
	"adaptio/internal/coord"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/obs"
)

// runSharedNIC is the `-scenario sharednic` entry point: the
// contention-regression experiment of docs/coordination.md at CI scale. A
// fleet of streams (90% best-effort "silver" at weight 1, 10% priority
// "gold" at weight 2, heterogeneous CPU speeds and corpus kinds) shares one
// simulated Native-platform NIC twice with identical seeds: once with every
// stream running its own paper decider, once registered with a fleet
// coordinator budgeted at the link rate. It prints the two runs side by
// side, optionally writes a JSON metrics artifact for CI, and exits
// non-zero unless the coordinated fleet wins on both axes — strictly higher
// aggregate goodput AND strictly fewer level flaps.
func runSharedNIC(seed uint64, streams int, metricsOut string) int {
	const (
		nicMBps    = 111.0 // netTable[Native]: the paper's 1 Gbit/s link
		windows    = 240
		windowSecs = 2.0
		goldWeight = 2.0
	)
	if streams < 2 {
		fmt.Fprintln(os.Stderr, "sharednic: need at least 2 streams")
		return 2
	}
	gold := streams / 10
	if gold == 0 {
		gold = 1
	}
	silver := streams - gold

	fleet := func(mkScheme func(i int, weight float64, tenant string) core.Policy) []cloudsim.FleetStream {
		out := make([]cloudsim.FleetStream, streams)
		for i := 0; i < streams; i++ {
			weight, tenant := 1.0, "silver"
			if i >= silver {
				weight, tenant = goldWeight, "gold"
			}
			cpu := 0.35 + 0.65*float64(i%13)/12
			kind := cloudsim.ConstantKind(corpus.Moderate)
			switch {
			case i%10 == 3:
				kind = cloudsim.ConstantKind(corpus.High)
			case i%10 == 7:
				kind = cloudsim.AlternatingKinds(int64(200+5*i)*1e6, corpus.Moderate, corpus.Low)
			}
			out[i] = cloudsim.FleetStream{
				Kind:      kind,
				Policy:    mkScheme(i, weight, tenant),
				Weight:    weight,
				CPUFactor: cpu,
				Tenant:    tenant,
			}
		}
		return out
	}
	run := func(mkScheme func(i int, weight float64, tenant string) core.Policy) (cloudsim.FleetResult, error) {
		return cloudsim.RunFleet(cloudsim.FleetConfig{
			NICMBps:       nicMBps,
			Windows:       windows,
			WindowSeconds: windowSecs,
			Profiles:      cloudsim.ReferenceProfiles(),
			Streams:       fleet(mkScheme),
			Seed:          seed,
			NICSigma:      0.08,
			CPUSigma:      0.03,
		})
	}

	fmt.Printf("Shared-NIC scenario: %d streams (%d silver w=1, %d gold w=%.0f) on a %.0f MB/s NIC, %d x %.0f s windows, seed %d\n",
		streams, silver, gold, goldWeight, nicMBps, windows, windowSecs, seed)

	solo, err := run(func(int, float64, string) core.Policy {
		return core.MustNew(core.PolicyAlgorithmOne, core.Config{Levels: 4})
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sharednic: solo fleet: %v\n", err)
		return 1
	}

	reg := obs.NewRegistry()
	c, err := coord.New(coord.Config{
		BudgetBytesPerSec: nicMBps * 1e6,
		Levels:            4,
		Obs:               reg.Scope("coord"),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sharednic: coordinator: %v\n", err)
		return 1
	}
	var handles []*coord.Stream
	coordinated, err := run(func(i int, weight float64, tenant string) core.Policy {
		s := c.Register(coord.StreamConfig{Weight: weight, Tenant: tenant})
		handles = append(handles, s)
		return s
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sharednic: coordinated fleet: %v\n", err)
		return 1
	}
	for _, h := range handles {
		h.Detach()
	}

	type tenantBytes struct {
		Gold   int64 `json:"gold_app_bytes"`
		Silver int64 `json:"silver_app_bytes"`
	}
	perTenant := func(res cloudsim.FleetResult) tenantBytes {
		var tb tenantBytes
		for _, ps := range res.PerStream {
			if ps.Tenant == "gold" {
				tb.Gold += ps.AppBytes
			} else {
				tb.Silver += ps.AppBytes
			}
		}
		return tb
	}
	soloTen, coordTen := perTenant(solo), perTenant(coordinated)

	row := func(name string, res cloudsim.FleetResult, tb tenantBytes) {
		fmt.Printf("  %-12s goodput %8.1f MB/s  wire %8.1f MB/s  switches %6d  flaps %6d  gold/stream %6.1f MB  silver/stream %6.1f MB\n",
			name,
			res.GoodputMBps(windowSecs),
			float64(res.WireBytes)/1e6/(windowSecs*float64(res.Windows)),
			res.Switches, res.Flaps,
			float64(tb.Gold)/float64(gold)/1e6,
			float64(tb.Silver)/float64(silver)/1e6)
	}
	row("solo", solo, soloTen)
	row("coordinated", coordinated, coordTen)

	goodputWin := coordinated.AppBytes > solo.AppBytes
	flapWin := coordinated.Flaps < solo.Flaps
	pass := goodputWin && flapWin

	if metricsOut != "" {
		type fleetJSON struct {
			AppBytes    int64   `json:"app_bytes"`
			WireBytes   int64   `json:"wire_bytes"`
			GoodputMBps float64 `json:"goodput_mbps"`
			Switches    int64   `json:"switches"`
			Flaps       int64   `json:"flaps"`
			tenantBytes
		}
		artifact := struct {
			Scenario    string    `json:"scenario"`
			Seed        uint64    `json:"seed"`
			Streams     int       `json:"streams"`
			Windows     int       `json:"windows"`
			NICMBps     float64   `json:"nic_mbps"`
			Solo        fleetJSON `json:"solo"`
			Coordinated fleetJSON `json:"coordinated"`
			Pass        bool      `json:"pass"`
		}{
			Scenario: "sharednic",
			Seed:     seed,
			Streams:  streams,
			Windows:  windows,
			NICMBps:  nicMBps,
			Solo: fleetJSON{
				AppBytes: solo.AppBytes, WireBytes: solo.WireBytes,
				GoodputMBps: solo.GoodputMBps(windowSecs),
				Switches:    int64(solo.Switches), Flaps: int64(solo.Flaps),
				tenantBytes: soloTen,
			},
			Coordinated: fleetJSON{
				AppBytes: coordinated.AppBytes, WireBytes: coordinated.WireBytes,
				GoodputMBps: coordinated.GoodputMBps(windowSecs),
				Switches:    int64(coordinated.Switches), Flaps: int64(coordinated.Flaps),
				tenantBytes: coordTen,
			},
			Pass: pass,
		}
		data, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sharednic: marshal metrics: %v\n", err)
			return 1
		}
		if err := os.WriteFile(metricsOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sharednic: write %s: %v\n", metricsOut, err)
			return 1
		}
		fmt.Printf("metrics artifact written to %s\n", metricsOut)
	}

	fmt.Println("--- end-of-run coordinator metrics ---")
	fmt.Print(reg.RenderText())

	switch {
	case !goodputWin:
		fmt.Printf("sharednic: FAIL: coordinated goodput %d bytes did not beat solo %d\n",
			coordinated.AppBytes, solo.AppBytes)
		return 1
	case !flapWin:
		fmt.Printf("sharednic: FAIL: coordinated flaps %d not below solo %d\n",
			coordinated.Flaps, solo.Flaps)
		return 1
	}
	fmt.Println("sharednic: PASS")
	return 0
}
