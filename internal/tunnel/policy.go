package tunnel

import (
	"fmt"
	"sync/atomic"

	"adaptio/internal/coord"
	"adaptio/internal/core"
)

// PolicyFactory makes the level policy of one connection's compress path,
// plus the func that releases it when that path ends. Config.Policy takes
// one; the CLIs build it from their -static, -decider, -decider-seed,
// -alpha and -coord flags with StaticPolicy, DeciderPolicy or CoordPolicy.
type PolicyFactory func() (policy core.Policy, release func())

// StaticPolicy pins every connection at level l (the paper's static
// baselines).
func StaticPolicy(l int) PolicyFactory {
	return func() (core.Policy, func()) { return core.Static(l), func() {} }
}

// DeciderPolicy builds a fresh registry policy (core.New) for every
// connection. Connection i of the factory gets the seed cfg.Seed ^ i<<20, so
// two endpoints built from equal arguments make the same decision sequence
// on their i-th connection. The name and cfg are validated here, once.
func DeciderPolicy(name string, cfg core.Config) (PolicyFactory, error) {
	if _, err := core.New(name, cfg); err != nil {
		return nil, fmt.Errorf("tunnel: %w", err)
	}
	var conns atomic.Uint64
	return func() (core.Policy, func()) {
		c := cfg
		c.Seed ^= conns.Add(1) << 20
		return core.MustNew(name, c), func() {}
	}, nil
}

// CoordPolicy joins every connection to the fleet coordinator c (non-nil)
// under sc's weight and tenant. The connection takes its levels from the
// coordinator's weighted-fair budget allocation and detaches when it ends.
// See docs/coordination.md.
func CoordPolicy(c *coord.Coordinator, sc coord.StreamConfig) PolicyFactory {
	return func() (core.Policy, func()) {
		s := c.Register(sc)
		return s, s.Detach
	}
}
