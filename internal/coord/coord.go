// Package coord is the fleet-level compression coordinator: a host-scoped
// controller that owns a shared link-bandwidth budget and assigns
// compression levels across every registered stream, instead of letting N
// independent core.Deciders probe against each other on one contended NIC.
//
// The paper's decision model (internal/core) deliberately adapts from the
// observed application data rate alone, because inside a VM every
// OS-provided metric is suspect (Section II). That remains true per stream —
// but when many streams of the *same host* share one NIC, each solo decider
// misattributes its neighbours' probes as environment shifts and oscillates:
// a probe by stream A shifts the share of streams B..N, whose deciders see a
// "degradation", revert, shift the shares again, and the fleet flaps.
// Gridiron (PAPERS.md) models cloud workloads with explicit per-flow
// bandwidth requirements, and ADARES observes that adaptive controllers need
// shared context to stop flailing; coord is that shared context.
//
// The coordinator holds exactly one trustworthy host-local fact the solo
// decider cannot know: the link budget and how many siblings share it. From
// it, each stream's weighted-fair wire share is
//
//	share_i = Budget * weight_i / Σ weight_j
//
// and the level assigned to stream i maximizes the estimated goodput
//
//	E_i(l) = min(share_i / ratio_i(l), comp_i(l))
//
// where ratio_i(l) and comp_i(l) are per-stream estimates (configured priors
// corrected by per-stream multiplicative drift learned from the stream's own
// observed window stats — again application-side observations only, never OS
// metrics). Two damping rules suppress level flapping:
//
//   - a candidate level must beat the current one's estimate by
//     ImprovementMargin, and
//   - it must stay the winner for HysteresisWindows consecutive windows, and
//     moves step one level at a time with a minimum dwell between steps.
//
// When a stream detaches (or no coordinator is configured at all), it falls
// back to its own paper-faithful solo core.Decider, which the coordinator
// keeps warm by feeding it every observed window rate while attached.
//
// Observability (internal/obs): coord.goodput.bytes, coord.level.flaps,
// coord.streams.active, plus coord.level.switches and coord.streams.total.
// See docs/coordination.md for the budget/fairness/hysteresis contract and
// the contention-regression suite that gates this package.
package coord

import (
	"fmt"
	"sync"

	"adaptio/internal/core"
	"adaptio/internal/obs"
)

// Defaults for the damping and estimation knobs; see Config.
const (
	DefaultHysteresisWindows = 3
	DefaultImprovementMargin = 0.10
	DefaultFlapWindow        = 8
	DefaultDriftGain         = 0.4
)

// DefaultBudgetBytesPerSec is a 1 Gbit/s link's achievable application-layer
// throughput (the paper's evaluation NIC), the conventional budget when the
// operator does not specify one.
const DefaultBudgetBytesPerSec = 111e6

// Config parameterizes a Coordinator.
type Config struct {
	// BudgetBytesPerSec is the shared wire-byte budget of the link all
	// registered streams traverse (application-layer achievable bytes/s,
	// not raw line rate). Zero means DefaultBudgetBytesPerSec.
	BudgetBytesPerSec float64

	// Levels is the compression ladder size, including level 0 = no
	// compression. Must be >= 1 and match the streams' ladder.
	Levels int

	// RatioPrior[l] is the expected wire/app compression ratio at level l
	// before any stream-specific evidence (level 0 must be 1). Nil with
	// Levels == 4 means DefaultPriors' ratios.
	RatioPrior []float64

	// CompBytesPerSec[l] is the expected single-stream compression
	// throughput at level l in application bytes/s. Nil with Levels == 4
	// means DefaultPriors' speeds.
	CompBytesPerSec []float64

	// HysteresisWindows is how many consecutive windows a better target
	// level must persist before the stream moves one step toward it, and
	// also the minimum dwell (in windows) between two moves of the same
	// stream. Zero means DefaultHysteresisWindows.
	HysteresisWindows int

	// ImprovementMargin is the fractional estimated-goodput advantage a
	// candidate level needs over the current one before it is considered
	// at all; differences inside the margin are treated as noise (the
	// coordinator's analogue of the solo decider's α band). Zero means
	// DefaultImprovementMargin. Negative is invalid.
	ImprovementMargin float64

	// FlapWindow: a level move that reverses the stream's previous move
	// direction within this many windows counts as a flap
	// (coord.level.flaps). Zero means DefaultFlapWindow.
	FlapWindow int

	// Alpha is forwarded to each stream's fallback solo decider; zero
	// means the paper's default.
	Alpha float64

	// SoloPolicy names the core policy (core.PolicyNames) each stream's
	// detach fallback decider is built from; empty means the
	// paper-faithful default (core.PolicyAlgorithmOne). The policy is
	// constructed per stream, seeded from SoloSeed xor a per-stream
	// counter so stochastic policies stay deterministic per fleet.
	SoloPolicy string

	// SoloSeed seeds stochastic solo policies (ignored by deterministic
	// ones). Streams registered later fork distinct seeds from it.
	SoloSeed uint64

	// Obs, if non-nil, is the scope the coordinator registers its metrics
	// under (conventionally "coord"). Nil keeps the coordinator fully
	// functional with unregistered metrics.
	Obs *obs.Scope
}

// DefaultPriors returns the ratio and compression-speed priors for the
// default four-level NO/LIGHT/MEDIUM/HEAVY ladder, taken from the
// Table II-calibrated reference profiles (internal/cloudsim, MODERATE
// corpus): they only need to be order-of-magnitude right, because every
// stream corrects them multiplicatively from its own observed windows.
func DefaultPriors() (ratio, compBps []float64) {
	return []float64{1, 0.45, 0.40, 0.33},
		[]float64{5000e6, 104e6, 71e6, 8.9e6}
}

func (c Config) withDefaults() (Config, error) {
	if c.Levels < 1 {
		return c, fmt.Errorf("coord: config needs at least 1 level, got %d", c.Levels)
	}
	if c.BudgetBytesPerSec < 0 {
		return c, fmt.Errorf("coord: negative budget %v", c.BudgetBytesPerSec)
	}
	if c.BudgetBytesPerSec == 0 {
		c.BudgetBytesPerSec = DefaultBudgetBytesPerSec
	}
	if c.RatioPrior == nil && c.CompBytesPerSec == nil && c.Levels == 4 {
		c.RatioPrior, c.CompBytesPerSec = DefaultPriors()
	}
	if len(c.RatioPrior) != c.Levels || len(c.CompBytesPerSec) != c.Levels {
		return c, fmt.Errorf("coord: priors must cover all %d levels (got %d ratios, %d speeds)",
			c.Levels, len(c.RatioPrior), len(c.CompBytesPerSec))
	}
	if c.RatioPrior[0] != 1 {
		return c, fmt.Errorf("coord: level 0 ratio prior must be 1, got %v", c.RatioPrior[0])
	}
	for l := 0; l < c.Levels; l++ {
		if c.RatioPrior[l] <= 0 || c.RatioPrior[l] > 1.5 {
			return c, fmt.Errorf("coord: bad ratio prior %v for level %d", c.RatioPrior[l], l)
		}
		if c.CompBytesPerSec[l] <= 0 {
			return c, fmt.Errorf("coord: bad compression-speed prior %v for level %d", c.CompBytesPerSec[l], l)
		}
	}
	if c.HysteresisWindows == 0 {
		c.HysteresisWindows = DefaultHysteresisWindows
	}
	if c.HysteresisWindows < 0 {
		return c, fmt.Errorf("coord: negative hysteresis %d", c.HysteresisWindows)
	}
	if c.ImprovementMargin == 0 {
		c.ImprovementMargin = DefaultImprovementMargin
	}
	if c.ImprovementMargin < 0 {
		return c, fmt.Errorf("coord: negative improvement margin %v", c.ImprovementMargin)
	}
	if c.FlapWindow == 0 {
		c.FlapWindow = DefaultFlapWindow
	}
	if c.FlapWindow < 0 {
		return c, fmt.Errorf("coord: negative flap window %d", c.FlapWindow)
	}
	if _, err := core.New(c.SoloPolicy, core.Config{Levels: c.Levels, Alpha: c.Alpha}); err != nil {
		return c, fmt.Errorf("coord: solo policy: %w", err)
	}
	return c, nil
}

// coordMetrics are the coordinator's obs instruments, resolved once.
type coordMetrics struct {
	goodputBytes  *obs.Counter
	flaps         *obs.Counter
	switches      *obs.Counter
	streamsActive *obs.Gauge
	streamsTotal  *obs.Counter
	streamsSolo   *obs.Counter // detach events: streams fallen back to solo
}

func newCoordMetrics(scope *obs.Scope) *coordMetrics {
	return &coordMetrics{
		goodputBytes:  scope.Counter("goodput.bytes"),
		flaps:         scope.Counter("level.flaps"),
		switches:      scope.Counter("level.switches"),
		streamsActive: scope.Gauge("streams.active"),
		streamsTotal:  scope.Counter("streams.total"),
		streamsSolo:   scope.Counter("streams.solo_fallbacks"),
	}
}

// Coordinator owns the link budget and the registered stream set. All
// methods are safe for concurrent use; per-window work is one short
// critical section per stream.
type Coordinator struct {
	cfg Config
	m   *coordMetrics

	mu         sync.Mutex
	streams    map[*Stream]struct{}
	sumWeights float64
	soloSeq    uint64 // per-stream seed counter for stochastic solo policies
}

// New creates a Coordinator for the given configuration.
func New(cfg Config) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		cfg:     cfg,
		m:       newCoordMetrics(cfg.Obs),
		streams: make(map[*Stream]struct{}),
	}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Coordinator {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// ActiveStreams returns the number of currently registered streams.
func (c *Coordinator) ActiveStreams() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.streams)
}

// Budget returns the configured link budget in bytes per second.
func (c *Coordinator) Budget() float64 { return c.cfg.BudgetBytesPerSec }

// StreamConfig describes one stream joining the coordinated fleet.
type StreamConfig struct {
	// Weight is the stream's share weight for weighted-fair budget
	// division (per-tenant priority). Zero means 1; negative is clamped
	// to the minimum positive weight.
	Weight float64
	// Tenant is a free-form owner label carried into diagnostics.
	Tenant string
}

// Register adds a stream to the fleet and returns its handle. The stream
// starts at level 0 (like a fresh solo decider) and is coordinated until
// Detach. Register on a nil Coordinator returns nil — callers that support
// running without a coordinator must branch, exactly as they would for a
// nil obs scope.
func (c *Coordinator) Register(sc StreamConfig) *Stream {
	if c == nil {
		return nil
	}
	w := sc.Weight
	if w <= 0 {
		w = 1
	}
	c.mu.Lock()
	seq := c.soloSeq
	c.soloSeq++
	c.mu.Unlock()
	s := &Stream{
		coord:         c,
		weight:        w,
		tenant:        sc.Tenant,
		ratioDrift:    1,
		compDrift:     1,
		lastSwitchWin: -1,
		solo: core.MustNew(c.cfg.SoloPolicy, core.Config{
			Levels: c.cfg.Levels,
			Alpha:  c.cfg.Alpha,
			Seed:   c.cfg.SoloSeed ^ seq<<17,
		}),
	}
	c.mu.Lock()
	c.streams[s] = struct{}{}
	c.sumWeights += w
	c.mu.Unlock()
	c.m.streamsTotal.Inc()
	c.m.streamsActive.Add(1)
	return s
}

// detach removes s from the fleet; idempotence is handled by the caller
// (Stream.Detach).
func (c *Coordinator) detach(s *Stream) {
	c.mu.Lock()
	if _, ok := c.streams[s]; ok {
		delete(c.streams, s)
		c.sumWeights -= s.weight
		if c.sumWeights < 0 {
			c.sumWeights = 0
		}
	}
	c.mu.Unlock()
	c.m.streamsActive.Add(-1)
	c.m.streamsSolo.Inc()
}

// shareBytesPerSec returns the weighted-fair wire share of a stream with the
// given weight; callers hold c.mu.
func (c *Coordinator) shareLocked(weight float64) float64 {
	if c.sumWeights <= 0 {
		return c.cfg.BudgetBytesPerSec
	}
	return c.cfg.BudgetBytesPerSec * weight / c.sumWeights
}
