package stream

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/obs"
	"adaptio/internal/vclock"
)

// recordingScheme is a policy that scripts levels and records what the
// writer fed it.
type recordingScheme struct {
	levels []int // level to return per Observe call
	calls  int
	rates  []float64
	app    []int64
	wire   []int64
}

func (r *recordingScheme) Level() int {
	if len(r.levels) == 0 {
		return 0
	}
	return r.levels[0]
}

func (r *recordingScheme) Observe(w core.Window) int {
	r.rates = append(r.rates, w.Rate)
	r.app = append(r.app, w.AppBytes)
	r.wire = append(r.wire, w.WireBytes)
	r.calls++
	idx := r.calls
	if idx >= len(r.levels) {
		idx = len(r.levels) - 1
	}
	return r.levels[idx]
}

func TestWriterSchemeDrivesLevels(t *testing.T) {
	clk := vclock.NewManual()
	sch := &recordingScheme{levels: []int{0, 1, 2, 2, 1}}
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{
		Clock: clk, Window: time.Second, BlockSize: 16 << 10, Policy: sch,
	})
	if w.Level() != 0 {
		t.Fatalf("initial level = %d, want Policy.Level() = 0", w.Level())
	}
	src := corpus.Generate(corpus.Moderate, 256<<10, 3)
	for off := 0; off < len(src); off += 16 << 10 {
		if _, err := w.Write(src[off : off+16<<10]); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if sch.calls == 0 {
		t.Fatal("scheme was never observed")
	}
	// The writer must have followed the script: levels 1 and 2 both saw
	// blocks, and the scheme received real window stats.
	st := w.Stats()
	if st.BlocksPerLevel[1] == 0 || st.BlocksPerLevel[2] == 0 {
		t.Fatalf("blocks per level = %v, want levels 1 and 2 used", st.BlocksPerLevel)
	}
	var app int64
	for _, a := range sch.app {
		app += a
	}
	if app == 0 {
		t.Fatal("scheme saw zero application bytes")
	}
	for i, wb := range sch.wire {
		if sch.app[i] > 0 && wb == 0 {
			t.Fatalf("window %d: app bytes %d but zero wire bytes reported", i, sch.app[i])
		}
	}
	// Round trip: mixed-level stream must still decode.
	out, err := io.ReadAll(mustReader(t, &wire))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("scheme-driven stream round trip mismatch")
	}
}

// outOfRangeDecider is a Decider whose decisions leave the ladder in both
// directions; the writer must clamp instead of crash.
type outOfRangeDecider struct {
	n    int
	last core.Decision
}

func (o *outOfRangeDecider) Level() int { return 0 }
func (o *outOfRangeDecider) Observe(core.Window) int {
	o.n++
	to := 99
	if o.n%2 == 0 {
		to = -1
	}
	o.last = core.Decision{Kind: core.DecisionProbe, From: 0, To: to}
	return to
}
func (o *outOfRangeDecider) LastDecision() core.Decision   { return o.last }
func (o *outOfRangeDecider) PolicyStats() core.PolicyStats { return core.PolicyStats{Observed: o.n} }
func (o *outOfRangeDecider) Name() string                  { return "out-of-range" }

func TestWriterSchemeClampsOutOfRangeLevels(t *testing.T) {
	clk := vclock.NewManual()
	var wire bytes.Buffer
	var seen []int
	dec := &outOfRangeDecider{}
	w := mustWriter(t, &wire, WriterConfig{
		Clock: clk, Window: time.Second, BlockSize: 8 << 10, Policy: dec,
		OnWindow: func(ws WindowStat) { seen = append(seen, ws.NextLevel) },
	})
	src := corpus.Generate(corpus.Low, 64<<10, 5)
	for off := 0; off < len(src); off += 8 << 10 {
		if _, err := w.Write(src[off : off+8<<10]); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if dec.n < 2 {
		t.Fatalf("policy observed %d windows, want both out-of-range directions exercised", dec.n)
	}
	top := len(DefaultLadder()) - 1
	for i, lvl := range seen[:dec.n] { // the last entry is Close's final window
		if want := []int{top, 0}[i%2]; lvl != want {
			t.Fatalf("window %d: next level %d, want %d (99 and -1 clamped to the ladder)", i, lvl, want)
		}
	}
	out, err := io.ReadAll(mustReader(t, &wire))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("round trip mismatch with clamped levels")
	}
}

// TestWriterNilPolicyIsAlgorithmOne: a nil Policy must behave exactly like
// an explicit Algorithm 1 built for the ladder: same frames on the wire and
// the same decision event log.
func TestWriterNilPolicyIsAlgorithmOne(t *testing.T) {
	run := func(p core.Policy) ([]byte, string) {
		scope := obs.NewRegistry().Scope("w")
		clk := vclock.NewManual()
		var wire bytes.Buffer
		w := mustWriter(t, &wire, WriterConfig{
			Clock: clk, Window: time.Second, BlockSize: 8 << 10, Policy: p,
			Obs: scope,
		})
		src := corpus.Generate(corpus.Moderate, 512<<10, 11)
		for i, off := 0, 0; off < len(src); i, off = i+1, off+8<<10 {
			if _, err := w.Write(src[off : off+8<<10]); err != nil {
				t.Fatal(err)
			}
			// A rate that depends on the level and wobbles, so the
			// decider probes, rewards and reverts.
			clk.Advance(time.Duration(1+w.Level()*(i%3)) * 300 * time.Millisecond)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var log strings.Builder
		for _, e := range scope.EventLog("decisions", 0).Events() {
			fmt.Fprintf(&log, "%s %s\n", e.Kind, e.Detail)
		}
		return wire.Bytes(), log.String()
	}
	nilWire, nilLog := run(nil)
	algone, err := core.New(core.PolicyAlgorithmOne, core.Config{Levels: len(DefaultLadder())})
	if err != nil {
		t.Fatal(err)
	}
	expWire, expLog := run(algone)
	if !bytes.Equal(nilWire, expWire) {
		t.Fatal("nil Policy wrote different frames than an explicit Algorithm 1")
	}
	if nilLog != expLog {
		t.Fatalf("nil Policy decision log differs from an explicit Algorithm 1:\n%s\nvs\n%s", nilLog, expLog)
	}
	if !strings.Contains(nilLog, "probe level") || !strings.Contains(nilLog, "revert level") {
		t.Fatalf("decision log recorded no probe; the comparison is vacuous:\n%s", nilLog)
	}
}

func TestWriterSchemeBadInitialLevel(t *testing.T) {
	for _, p := range []core.Policy{&recordingScheme{levels: []int{42}}, core.Static(-1), core.Static(99)} {
		if _, err := NewWriter(&bytes.Buffer{}, WriterConfig{Policy: p}); err == nil {
			t.Fatalf("NewWriter accepted a policy starting at level %d, outside the ladder", p.Level())
		}
	}
}
