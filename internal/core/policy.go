package core

import "fmt"

// Window is one completed decision window as the engine that ran it
// measured it: the whole input of a level policy. Fields are added only
// when a policy reads them.
type Window struct {
	// Rate is the window's application data rate in bytes/second,
	// measured before compression: the cdr of Algorithm 1.
	Rate float64
	// AppBytes and WireBytes are the window's byte totals at the
	// application and wire layers. Zero means the engine does not know
	// them (the rate-only simulators).
	AppBytes, WireBytes int64
}

// Ratio is the window's achieved wire/app byte ratio (1 = incompressible,
// smaller = better compression), or 0 when either byte total is unknown.
func (w Window) Ratio() float64 {
	if w.AppBytes <= 0 || w.WireBytes <= 0 {
		return 0
	}
	return float64(w.WireBytes) / float64(w.AppBytes)
}

// Policy is the one level-selection seam: every engine (the stream writer,
// the simulators, the fleet coordinator's streams) feeds it each completed
// window and adopts the returned level for the next. Implementations are
// not safe for concurrent use; callers serialize.
type Policy interface {
	// Observe consumes one completed window and returns the level for
	// the next window, within [0, Levels).
	Observe(Window) int
	// Level returns the currently selected level without observing; an
	// engine starts at it.
	Level() int
}

// Static pins one level forever: the paper's NO / LIGHT / MEDIUM / HEAVY
// static baselines (Table II).
type Static int

// Observe implements Policy: the level never moves.
func (s Static) Observe(Window) int { return int(s) }

// Level implements Policy.
func (s Static) Level() int { return int(s) }

// Decider is a Policy that explains itself: the registry policies
// (Algorithm 1 and the learned variants) built by New. A Decider is a pure,
// seeded state machine: no clocks, no I/O, no goroutines, no global
// randomness, so the identical policy code runs under the real-time stream
// layer, the fleet coordinator fallback and the discrete-event simulators,
// and two instances built from the same Config and fed the same windows
// produce the same decision trace (see docs/deciders.md).
type Decider interface {
	Policy
	// LastDecision classifies what the most recent Observe did; it feeds
	// the obs-layer decision event log.
	LastDecision() Decision
	// PolicyStats reports the probe/revert economics the two-axis
	// acceptance bound gates on.
	PolicyStats() PolicyStats
	// Name returns the policy's registry name (e.g. "algone").
	Name() string
}

// PolicyStats is the cumulative decision economics of a policy: what the
// two-axis acceptance bound (docs/deciders.md) gates on. All counters are
// monotone.
type PolicyStats struct {
	// Probes counts exploratory level moves (DecisionProbe).
	Probes int
	// Reverts counts degradation-triggered take-backs (DecisionRevert).
	Reverts int
	// Rewards counts stable-improvement reinforcements (DecisionReward).
	Rewards int
	// Observed counts Observe calls.
	Observed int
	// WastedProbes counts probes that were undone by a revert on the
	// immediately following window: the probe moved the stream to a
	// worse level, the rate collapsed, and the policy retreated. This is
	// the probe-economy axis of the acceptance bound — a learned policy
	// must waste strictly fewer probes than AlgorithmOne while staying
	// within-or-better on converged throughput; bounding either axis
	// alone is gameable (a Static policy never wastes a probe).
	WastedProbes int
}

// Registry names of the built-in policies.
const (
	// PolicyAlgorithmOne is the paper-faithful default (Algorithm 1).
	PolicyAlgorithmOne = "algone"
	// PolicyBandit is the contextual-bandit probe-gating policy.
	PolicyBandit = "bandit"
	// PolicyEWMA is the EWMA trend-predictive policy.
	PolicyEWMA = "ewma"
)

// PolicyNames lists the registry policies in catalog order.
func PolicyNames() []string {
	return []string{PolicyAlgorithmOne, PolicyBandit, PolicyEWMA}
}

// New constructs a registry policy by name; the empty name selects the
// paper default, Algorithm 1. An unknown name or an invalid Config is an
// error.
func New(name string, cfg Config) (Decider, error) {
	switch name {
	case PolicyAlgorithmOne, "", PolicyBandit, PolicyEWMA:
	default:
		return nil, fmt.Errorf("core: unknown decider policy %q (want one of %v)", name, PolicyNames())
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	switch name {
	case PolicyBandit:
		return newBandit(cfg), nil
	case PolicyEWMA:
		return newEWMAPredictive(cfg), nil
	default:
		return newAlgorithmOne(cfg), nil
	}
}

// MustNew is New for known-good names and configurations.
func MustNew(name string, cfg Config) Decider {
	d, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return d
}
