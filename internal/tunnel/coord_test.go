package tunnel_test

import (
	"bytes"
	"io"
	"net"
	"testing"

	"adaptio/internal/coord"
	"adaptio/internal/corpus"
	"adaptio/internal/faultio/leakcheck"
	"adaptio/internal/obs"
	"adaptio/internal/tunnel"
)

// TestCoordRegistersAndDetachesStreams proves the tunnel wiring contract of
// the fleet coordinator: every served connection's compress path registers
// with the coordinator while the relay runs (coord.streams.active rises)
// and detaches when the connection closes (the gauge returns to zero, and
// the total counter remembers every registration).
func TestCoordRegistersAndDetachesStreams(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	c := coord.MustNew(coord.Config{
		Levels: 4,
		Obs:    reg.Scope("coord"),
	})
	h := startScaleHarness(t, tunnel.Config{
		Policy: tunnel.CoordPolicy(c, coord.StreamConfig{Weight: 2, Tenant: "entry"}),
	})

	coordScope := reg.Scope("coord")
	const conns = 3
	release := make([]func(), conns)
	for i := range release {
		release[i] = holdConn(t, h.addr)
	}
	// Entry relays register one coordinated stream per connection's
	// compress path. (The exit endpoint has no coordinator configured, so
	// exactly the entry streams count.)
	waitFor(t, "streams registered", func() bool {
		return c.ActiveStreams() == conns
	})
	if got := coordScope.Gauge("streams.active").Value(); got != conns {
		t.Fatalf("coord.streams.active = %d, want %d", got, conns)
	}
	for _, r := range release {
		r()
	}
	waitFor(t, "streams detached", func() bool {
		return c.ActiveStreams() == 0
	})
	waitFor(t, "active gauge drained", func() bool {
		return coordScope.Gauge("streams.active").Value() == 0
	})
	if got := coordScope.Counter("streams.total").Value(); got != conns {
		t.Fatalf("coord.streams.total = %d, want %d", got, conns)
	}
}

// TestCoordStreamRoundTrip sends real data through a coordinated tunnel and
// verifies it arrives intact: the coordinator is a level-selection policy,
// never a correctness hazard.
func TestCoordStreamRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	c := coord.MustNew(coord.Config{Levels: 4})
	h := startScaleHarness(t, tunnel.Config{Policy: tunnel.CoordPolicy(c, coord.StreamConfig{})})

	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := corpus.Generate(corpus.Moderate, 512<<10, 77)
	done := make(chan error, 1)
	go func() {
		_, werr := conn.Write(payload)
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- werr
	}()
	got, err := io.ReadAll(io.LimitReader(conn, int64(len(payload))))
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo mismatch: got %d bytes", len(got))
	}
}
