package core

import (
	"math"

	"adaptio/internal/xrand"
)

// Bandit tuning constants. Calibrated against the policy-matrix suite
// (internal/experiments/decider_matrix_test.go): loose enough that the
// bandit keeps tracking regime shifts, tight enough that it stops paying
// for probes Algorithm 1 keeps wasting.
const (
	// banditQInit is the optimistic initial action value of every
	// context: unvisited contexts probe exactly like Algorithm 1 until
	// evidence arrives.
	banditQInit = 0.10
	// banditGain is the EWMA gain of the per-context action-value
	// updates — one decisively failed probe closes its context's gate.
	banditGain = 0.30
	// banditEpsilon is the exploration probability: a closed gate is
	// still probed this often, so a context whose economics improved is
	// rediscovered instead of starved.
	banditEpsilon = 0.10
	// banditTrendGain smooths the relative rate change into the trend
	// context dimension.
	banditTrendGain = 0.30
	// banditRatioGain smooths the observed compression ratio of windows
	// that carry byte totals into the ratio context dimension.
	banditRatioGain = 0.20
	// banditRevertMemory is how many windows a revert stays in the
	// context vector ("recently burned").
	banditRevertMemory = 8
	// banditMaxVetoes bounds how many consecutive windows a closed gate
	// may delay a released probe before it is forced through. The veto is
	// a delay, not a cancellation: without the bound, a context whose
	// economics silently improved (a share step at a compressor-bound
	// plateau is invisible in the rate signal) could starve probing
	// forever, and the policy would never re-converge.
	banditMaxVetoes = 8
)

// BanditDecider is a contextual bandit over Algorithm 1's probe decision:
// it keeps the paper's skeleton — tolerance band, exponential backoff
// pacing, immediate revert on degradation — but treats "take the optimistic
// probe the backoff just released" as a bandit arm whose value is learned
// per context (epsilon-greedy with optimistic initialization). Where
// Algorithm 1 probes unconditionally whenever the backoff expires, the
// bandit consults the learned value of probing in the current context and
// holds when probing there has historically degraded the rate, paying only
// an epsilon exploration tax. ADARES (PAPERS.md) motivates the approach:
// static probe rules flail exactly where context is informative.
//
// The context vector is built from the obs-layer signals the stream layer
// already exports (docs/observability.md): the current level, the probe
// direction, a smoothed window-rate trend bucket, a recent-revert bit
// (revert/backoff history) and a smoothed compression-ratio bucket (fed from
// Window.Ratio where the engine knows per-window byte totals; a neutral
// bucket otherwise). All randomness comes from the seeded RNG in the
// config, so a trace is exactly reproducible.
type BanditDecider struct {
	levels int
	alpha  float64
	rng    *xrand.RNG

	ladderState

	trend      float64 // EWMA of relative rate change
	ratio      float64 // EWMA of observed wire/app ratio; <0 = never fed
	lastRevert int     // observation index of the latest revert

	// Per-context action value of the probe arm.
	q []float64

	// pendingCtx is the context of a probe whose outcome the next
	// observation settles; -1 when no probe is in flight.
	pendingCtx int
	// vetoes counts consecutive gate-held windows since the last probe.
	vetoes int
}

// newBandit creates a contextual-bandit decider from a validated
// configuration (see New).
func newBandit(cfg Config) *BanditDecider {
	n := cfg.Levels * 2 * 3 * 2 * 3 // level x dir x trend x revert x ratio
	b := &BanditDecider{
		levels:      cfg.Levels,
		alpha:       cfg.Alpha,
		rng:         xrand.New(cfg.Seed ^ 0xBA4D17),
		ladderState: newLadderState(cfg.Levels),
		ratio:       -1,
		lastRevert:  -1 << 20,
		q:           make([]float64, n),
		pendingCtx:  -1,
	}
	for i := range b.q {
		b.q[i] = banditQInit
	}
	return b
}

// observeRatio folds a window's achieved wire/app ratio into the context
// vector's smoothed ratio.
func (b *BanditDecider) observeRatio(ratio float64) {
	if ratio <= 0 || math.IsNaN(ratio) || math.IsInf(ratio, 0) {
		return
	}
	if b.ratio < 0 {
		b.ratio = ratio
		return
	}
	b.ratio += banditRatioGain * (ratio - b.ratio)
}

// Observe implements Policy. A window that carries both byte totals also
// feeds its achieved ratio into the context vector, before the rate.
func (b *BanditDecider) Observe(w Window) int {
	b.observeRatio(w.Ratio())
	cdr := w.Rate
	b.observed++
	if !b.havePrev {
		b.pdr = cdr
		b.havePrev = true
	}
	prev := b.pdr
	rel := 0.0
	if prev > 0 {
		rel = (cdr - prev) / prev
	}

	// Settle the in-flight probe: this window's relative rate change is
	// what the probe bought. Rewards are normalized by the tolerance
	// band and clipped, so an out-of-band collapse counts as -1.
	if b.pendingCtx >= 0 {
		r := rel / b.alpha
		if r > 1 {
			r = 1
		} else if r < -1 {
			r = -1
		}
		b.q[b.pendingCtx] += banditGain * (r - b.q[b.pendingCtx])
		b.pendingCtx = -1
	}

	diff := cdr - prev
	abs := math.Abs(diff)
	from := b.ccl
	ncl := b.ccl
	kind := DecisionHold
	probeMove := false
	b.c++
	switch {
	case abs <= b.alpha*prev: // stable
		if backoffDue(b.c, b.bck[b.ccl]) {
			ctx := b.context()
			// The learned gate, its epsilon override, and the veto
			// budget, in that order (the RNG is drawn only when the
			// gate is closed).
			take := b.q[ctx] > 0 || b.rng.Float64() < banditEpsilon || b.vetoes >= banditMaxVetoes
			if take {
				b.vetoes = 0
				b.c = 0
				if b.inc {
					ncl++
				} else {
					ncl--
				}
				kind = DecisionProbe
				probeMove = true
				b.probes++
				b.pendingCtx = ctx
			} else {
				// A veto delays the released probe; c keeps running,
				// so the gate is re-rolled every window (epsilon gets
				// a fresh chance) until the veto budget runs out.
				b.vetoes++
			}
		}
	case diff > 0: // improved: reinforce the level, as Algorithm 1 does
		if b.bck[b.ccl] < 62 {
			b.bck[b.ccl]++
		}
		b.c = 0
		b.rewards++
		kind = DecisionReward
	default: // degraded: reset backoff and retreat immediately
		b.bck[b.ccl] = 0
		if b.inc {
			ncl--
		} else {
			ncl++
		}
		kind = DecisionRevert
		b.reverts++
		b.lastRevert = b.observed
		if b.last.Kind == DecisionProbe {
			b.wasted++
		}
		b.c = 0
	}

	ncl = clampToLadder(ncl, b.levels, probeMove)
	if ncl != b.ccl {
		b.inc = ncl > b.ccl
		b.ccl = ncl
	}
	b.pdr = cdr
	b.trend += banditTrendGain * (rel - b.trend)
	b.last = Decision{Kind: kind, From: from, To: b.ccl, Rate: cdr, PrevRate: prev, Backoff: b.bck[from]}
	return b.ccl
}

// context discretizes the signal vector into a cell index.
func (b *BanditDecider) context() int {
	dir := 0
	if b.inc {
		dir = 1
	}
	tb := 1 // flat
	if b.trend < -b.alpha/2 {
		tb = 0
	} else if b.trend > b.alpha/2 {
		tb = 2
	}
	rr := 0
	if b.observed-b.lastRevert <= banditRevertMemory {
		rr = 1
	}
	rb := 1 // unknown or mid compressibility
	if b.ratio >= 0 {
		if b.ratio < 0.5 {
			rb = 0
		} else if b.ratio > 0.9 {
			rb = 2
		}
	}
	return (((b.ccl*2+dir)*3+tb)*2+rr)*3 + rb
}

// Name implements Decider.
func (b *BanditDecider) Name() string { return PolicyBandit }
