package cloudsim

import (
	"adaptio/internal/core"
	"math"
	"reflect"
	"strings"
	"testing"

	"adaptio/internal/corpus"
)

func TestWaterFill(t *testing.T) {
	cases := []struct {
		name   string
		cap    float64
		demand []float64
		weight []float64
		want   []float64
	}{
		{
			name:   "all saturated equal weights",
			cap:    90,
			demand: []float64{100, 100, 100},
			weight: []float64{1, 1, 1},
			want:   []float64{30, 30, 30},
		},
		{
			name:   "small demand returns surplus",
			cap:    90,
			demand: []float64{10, 100, 100},
			weight: []float64{1, 1, 1},
			want:   []float64{10, 40, 40},
		},
		{
			name:   "under capacity everyone satisfied",
			cap:    90,
			demand: []float64{10, 20, 30},
			weight: []float64{1, 1, 1},
			want:   []float64{10, 20, 30},
		},
		{
			name:   "weighted 3:1 split",
			cap:    80,
			demand: []float64{100, 100},
			weight: []float64{3, 1},
			want:   []float64{60, 20},
		},
		{
			name:   "zero demand excluded",
			cap:    80,
			demand: []float64{0, 100, 100},
			weight: []float64{5, 1, 1},
			want:   []float64{0, 40, 40},
		},
		{
			name:   "cascade of satisfactions",
			cap:    100,
			demand: []float64{5, 30, 1000},
			weight: []float64{1, 1, 1},
			want:   []float64{5, 30, 65},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			alloc := make([]float64, len(tc.demand))
			waterFill(tc.cap, tc.demand, tc.weight, alloc)
			for i := range alloc {
				if math.Abs(alloc[i]-tc.want[i]) > 1e-9 {
					t.Fatalf("alloc = %v, want %v", alloc, tc.want)
				}
			}
		})
	}
}

func moderateFleet(n int, scheme func(i int) core.Policy) []FleetStream {
	streams := make([]FleetStream, n)
	for i := range streams {
		streams[i] = FleetStream{
			Kind:   ConstantKind(corpus.Moderate),
			Policy: scheme(i),
		}
	}
	return streams
}

func TestRunFleetValidation(t *testing.T) {
	profiles := ReferenceProfiles()
	base := func() FleetConfig {
		return FleetConfig{
			Windows:  4,
			Profiles: profiles,
			Streams:  moderateFleet(2, func(int) core.Policy { return core.Static(0) }),
		}
	}
	cases := []struct {
		name string
		mut  func(*FleetConfig)
		want string
	}{
		{"no streams", func(c *FleetConfig) { c.Streams = nil }, "at least one stream"},
		{"no windows", func(c *FleetConfig) { c.Windows = 0 }, "Windows > 0"},
		{"nil scheme", func(c *FleetConfig) { c.Streams[0].Policy = nil }, "nil policy"},
		{"nil kind", func(c *FleetConfig) { c.Streams[1].Kind = nil }, "nil kind schedule"},
		{"bad start level", func(c *FleetConfig) { c.Streams[0].Policy = core.Static(9) }, "invalid level"},
		{"negative weight", func(c *FleetConfig) { c.Streams[0].Weight = -1 }, "negative weight"},
		{"negative cpu factor", func(c *FleetConfig) { c.Streams[0].CPUFactor = -1 }, "negative CPU factor"},
		{"negative nic", func(c *FleetConfig) { c.NICMBps = -5 }, "negative NIC capacity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			_, err := RunFleet(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunFleet error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestRunFleetDeterministic(t *testing.T) {
	cfg := FleetConfig{
		NICMBps:  50,
		Windows:  30,
		Profiles: ReferenceProfiles(),
		Streams:  moderateFleet(8, func(int) core.Policy { return core.Static(1) }),
		Seed:     42,
		NICSigma: 0.1,
		CPUSigma: 0.05,
	}
	a, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Streams = moderateFleet(8, func(int) core.Policy { return core.Static(1) })
	b, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestRunFleetCompressionBeatsIdentityOnContendedNIC(t *testing.T) {
	// 10 streams on a 50 MB/s NIC: uncompressed each gets 5 MB/s of
	// goodput; LIGHT (ratio 0.45 on MODERATE) turns the same wire share
	// into ~11 MB/s of application bytes. The fleet model must reproduce
	// the paper's core economics.
	run := func(level int) FleetResult {
		res, err := RunFleet(FleetConfig{
			NICMBps:  50,
			Windows:  20,
			Profiles: ReferenceProfiles(),
			Streams:  moderateFleet(10, func(int) core.Policy { return core.Static(level) }),
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	no, light := run(0), run(1)
	if light.AppBytes <= no.AppBytes {
		t.Fatalf("LIGHT goodput %d <= NO goodput %d on a contended NIC", light.AppBytes, no.AppBytes)
	}
	// Wire usage must respect the NIC in both runs (quiet NIC: hard cap).
	wireMBps := float64(no.WireBytes) / 1e6 / (20 * 2)
	if wireMBps > 50*1.001 {
		t.Fatalf("NO run pushed %v MB/s of wire bytes through a 50 MB/s NIC", wireMBps)
	}
}

func TestRunFleetUncontendedPrefersCPUBound(t *testing.T) {
	// One stream on a fat NIC is CPU-bound: identity framing moves data
	// at nearly wire-stack speed, far above any compressor.
	res, err := RunFleet(FleetConfig{
		NICMBps:  1000,
		Windows:  10,
		Profiles: ReferenceProfiles(),
		Streams:  moderateFleet(1, func(int) core.Policy { return core.Static(0) }),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.GoodputMBps(2)
	// 1/(1/5000 + 1/150) ≈ 145.6 MB/s.
	if got < 120 || got > 160 {
		t.Fatalf("uncontended identity goodput = %v MB/s, want ~145", got)
	}
}

// seesaw flips between two levels every window — maximal flapping, which
// the harness must count no matter what the scheme itself reports.
type seesaw struct{ level int }

func (s *seesaw) Observe(core.Window) int {
	s.level = 1 - s.level
	return s.level
}
func (s *seesaw) Level() int { return s.level }

func TestRunFleetHarnessCountsFlaps(t *testing.T) {
	res, err := RunFleet(FleetConfig{
		NICMBps:  50,
		Windows:  21,
		Profiles: ReferenceProfiles(),
		Streams:  moderateFleet(1, func(int) core.Policy { return &seesaw{} }),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 21 windows → 21 switches; every switch after the first reverses the
	// previous direction one window later → 20 flaps.
	if res.Switches != 21 || res.Flaps != 20 {
		t.Fatalf("switches/flaps = %d/%d, want 21/20", res.Switches, res.Flaps)
	}
}

func TestRunFleetWeightedSharesSkewGoodput(t *testing.T) {
	streams := moderateFleet(4, func(int) core.Policy { return core.Static(1) })
	streams[0].Weight = 3
	streams[0].Tenant = "gold"
	res, err := RunFleet(FleetConfig{
		NICMBps:  40,
		Windows:  10,
		Profiles: ReferenceProfiles(),
		Streams:  streams,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	gold, silver := res.PerStream[0], res.PerStream[1]
	if gold.Tenant != "gold" {
		t.Fatalf("tenant label lost: %+v", gold)
	}
	ratioBytes := float64(gold.AppBytes) / float64(silver.AppBytes)
	if ratioBytes < 2.5 || ratioBytes > 3.5 {
		t.Fatalf("gold/silver goodput ratio = %v, want ~3 (weight 3 vs 1)", ratioBytes)
	}
}
