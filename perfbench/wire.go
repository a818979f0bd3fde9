package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adaptio/internal/stream"
)

// pacer is the shared token bucket the wan-bulk wire writes pass through.
// It keeps a virtual clock, next, of when the emulated link finishes what it
// has accepted, and sleeps each writer until its bytes are due. An oversleep
// does not reset the clock (the fault of ratelimit.Writer, which zeroes its
// tokens after every sleep): the next write is scheduled from the virtual
// instant, so late wake-ups are absorbed up to credit. Sleeps on a 1 ms-tick
// timer overshoot by up to about 1.1 ms, so credit must exceed that.
type pacer struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	credit time.Duration
	next   time.Time
	// lost is oversleep the credit could not absorb: time the emulated
	// link sat idle while a write was due. occupied is the link time the
	// accepted bytes took at the nominal rate.
	lost, occupied time.Duration
}

func newPacer(rate float64, credit time.Duration) *pacer {
	return &pacer{rate: rate, credit: credit}
}

func (p *pacer) setRate(rate float64) {
	p.mu.Lock()
	p.rate = rate
	p.mu.Unlock()
}

// wait blocks until n more bytes may enter the link.
func (p *pacer) wait(n int) {
	p.mu.Lock()
	now := time.Now()
	if floor := now.Add(-p.credit); p.next.Before(floor) {
		p.next = floor
	}
	cost := time.Duration(float64(n) / p.rate * float64(time.Second))
	p.next = p.next.Add(cost)
	p.occupied += cost
	due := p.next
	p.mu.Unlock()
	d := time.Until(due)
	if d <= 0 {
		return
	}
	time.Sleep(d)
	if late := time.Since(due) - p.credit; late > 0 {
		p.mu.Lock()
		p.lost += late
		p.mu.Unlock()
	}
}

// counters returns the cumulative lost and occupied link time.
func (p *pacer) counters() (lost, occupied time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lost, p.occupied
}

// wireStats counts what crosses the wire wrapper's write side.
type wireStats struct {
	writes, bytes atomic.Int64
	busy          atomic.Int64 // ns spent inside writes, pacing included
	vectored      atomic.Int64 // writes that arrived as WriteVectored
}

// wireConn is the benchmark's tunnel.Config.WrapWire wrapper. It paces
// writes through an optional pacer and counts them into optional stats.
// The tunnel's relay half-closes through CloseWrite/CloseRead and keeps
// its writev path through stream.VectoredWriter, so the wrapper forwards
// all three; without the half-close pair EOF never crosses the tunnel and
// the pair hangs.
type wireConn struct {
	net.Conn
	tcp   *net.TCPConn
	pace  *pacer
	stats *wireStats
}

var _ stream.VectoredWriter = (*wireConn)(nil)

// wrapWire returns a WrapWire function, or nil when there is nothing to
// wrap, so an untraced unthrottled run keeps the tunnel's bare TCP path.
func wrapWire(pace *pacer, stats *wireStats) func(net.Conn) net.Conn {
	if pace == nil && stats == nil {
		return nil
	}
	return func(c net.Conn) net.Conn {
		tc, ok := c.(*net.TCPConn)
		if !ok {
			return c
		}
		return &wireConn{Conn: tc, tcp: tc, pace: pace, stats: stats}
	}
}

func (c *wireConn) Write(p []byte) (int, error) {
	start := c.begin(len(p))
	n, err := c.tcp.Write(p)
	c.end(start, n, false)
	return n, err
}

func (c *wireConn) WriteVectored(hdr, payload []byte) error {
	start := c.begin(len(hdr) + len(payload))
	err := stream.WriteVectored(c.tcp, hdr, payload)
	n := 0
	if err == nil {
		n = len(hdr) + len(payload)
	}
	c.end(start, n, true)
	return err
}

func (c *wireConn) CloseWrite() error { return c.tcp.CloseWrite() }

func (c *wireConn) CloseRead() error { return c.tcp.CloseRead() }

func (c *wireConn) begin(n int) time.Time {
	var start time.Time
	if c.stats != nil {
		start = time.Now()
	}
	if c.pace != nil {
		c.pace.wait(n)
	}
	return start
}

func (c *wireConn) end(start time.Time, n int, vectored bool) {
	if c.stats == nil {
		return
	}
	c.stats.busy.Add(int64(time.Since(start)))
	c.stats.writes.Add(1)
	c.stats.bytes.Add(int64(n))
	if vectored {
		c.stats.vectored.Add(1)
	}
}
