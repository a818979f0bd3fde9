package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaptio/internal/corpus"
	"adaptio/internal/stream"
	"adaptio/internal/tunnel"
)

const (
	// rpcClients is the number of closed-loop clients, each holding one
	// connection open at a time.
	rpcClients = 2
	// Request sizes are log-uniform over [rpcMinSize, rpcMaxSize].
	rpcMinSize = 512
	rpcMaxSize = 64 << 10
	// rpcSlices is the number of equal slices of the measuring time over
	// which goodput is taken as the median.
	rpcSlices = 12
	// rpcStrata splits the log-size range into equal strata; every run of
	// rpcStrata requests draws once from each, in a seeded order, so the
	// mean request size barely depends on the seed.
	rpcStrata = 32
	// A client re-dials after a seeded number of requests in
	// [rpcMinPerConn, rpcMaxPerConn].
	rpcMinPerConn = 20
	rpcMaxPerConn = 60
	// rpcHeader prefixes every request and echo: payload length and
	// request id, little-endian uint32s.
	rpcHeader = 8
	// rpcPoolBytes is the corpus generated per kind for request payloads.
	rpcPoolBytes = 1 << 20
	// stampSlots sizes the echo service's timestamp ring; only the
	// in-flight requests (one per client) must not collide.
	stampSlots = 1 << 12
)

// stamps is where the echo service records, per request id, the instant
// the full request arrived, in ns since base; the echo leaves right after.
type stamps struct {
	base  time.Time
	slots [stampSlots]struct {
		id atomic.Uint32
		at atomic.Int64
	}
}

func (s *stamps) record(id uint32, at time.Time) {
	sl := &s.slots[id%stampSlots]
	sl.at.Store(int64(at.Sub(s.base)))
	sl.id.Store(id)
}

// legs splits a request's latency at the service: the forward leg runs
// from send start to the request's arrival, the return leg from there to
// the last echo byte at the client.
func (s *stamps) legs(id uint32, sent, done time.Time) (fwd, ret time.Duration, ok bool) {
	sl := &s.slots[id%stampSlots]
	if sl.id.Load() != id {
		return 0, 0, false
	}
	at := s.base.Add(time.Duration(sl.at.Load()))
	return at.Sub(sent), done.Sub(at), true
}

// echoService answers every request with the same bytes.
type echoService struct {
	ln       net.Listener
	stamps   *stamps
	accepted chan struct{}
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
}

func startEcho(st *stamps) (*echoService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &echoService{ln: ln, stamps: st, accepted: make(chan struct{}, 1024), conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[c] = struct{}{}
			s.mu.Unlock()
			select {
			case s.accepted <- struct{}{}:
			default:
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(c)
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				c.Close()
			}()
		}
	}()
	return s, nil
}

func (s *echoService) serve(c net.Conn) {
	msg := make([]byte, rpcHeader+rpcMaxSize)
	for {
		if _, err := io.ReadFull(c, msg[:rpcHeader]); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(msg))
		if n > rpcMaxSize {
			return
		}
		if _, err := io.ReadFull(c, msg[rpcHeader:rpcHeader+n]); err != nil {
			return
		}
		s.stamps.record(binary.LittleEndian.Uint32(msg[4:]), time.Now())
		if _, err := c.Write(msg[:rpcHeader+n]); err != nil {
			return
		}
	}
}

// close stops the service and waits for its goroutines.
func (s *echoService) close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// rpcStats is what one closed-loop client measured.
type rpcStats struct {
	latencies    []float64
	fwd, ret     []float64
	firstRequest []float64
	dials        int64
	blocked      time.Duration
}

// rpcClient runs one closed loop: request, wait for the full echo, check
// it byte for byte, repeat; re-dial after a seeded number of requests.
type rpcClient struct {
	addr   string
	rng    *rand.Rand
	pools  [3][]byte
	stamps *stamps
	nextID *atomic.Uint32
	// verified counts the payload bytes of all clients' verified requests.
	verified *atomic.Int64
	conn     net.Conn
}

func (c *rpcClient) perConn() int {
	return rpcMinPerConn + c.rng.IntN(rpcMaxPerConn-rpcMinPerConn+1)
}

// run issues requests for span from t0. It starts on c.conn, already
// dialed.
func (c *rpcClient) run(t0 time.Time, span time.Duration, p *pass) rpcStats {
	end := t0.Add(span)
	var st rpcStats
	send := make([]byte, rpcHeader+rpcMaxSize)
	recv := make([]byte, rpcHeader+rpcMaxSize)
	lnMin, lnMax := math.Log(rpcMinSize), math.Log(rpcMaxSize)
	var strata []int
	left := c.perConn()
	var dialedAt time.Time // zero for the connection dialed during set-up
	defer func() {
		if c.conn != nil {
			c.conn.Close()
		}
	}()
	for time.Now().Before(end) {
		if c.conn == nil {
			dialedAt = time.Now()
			conn, err := net.Dial("tcp", c.addr)
			if err != nil {
				p.fail("rpc dial: %v", err)
				return st
			}
			c.conn, left = conn, c.perConn()
			st.dials++
		}
		if len(strata) == 0 {
			strata = c.rng.Perm(rpcStrata)
		}
		u := (float64(strata[0]) + c.rng.Float64()) / rpcStrata
		strata = strata[1:]
		size := int(math.Exp(lnMin + u*(lnMax-lnMin)))
		pool := c.pools[c.rng.IntN(len(c.pools))]
		off := c.rng.IntN(len(pool) - size)
		id := c.nextID.Add(1)
		binary.LittleEndian.PutUint32(send, uint32(size))
		binary.LittleEndian.PutUint32(send[4:], id)
		copy(send[rpcHeader:], pool[off:off+size])
		msg := send[:rpcHeader+size]

		sent := time.Now()
		_, err := c.conn.Write(msg)
		st.blocked += time.Since(sent)
		if err == nil {
			_, err = io.ReadFull(c.conn, recv[:len(msg)])
		}
		done := time.Now()
		p.mu.Lock()
		p.attempted++
		p.mu.Unlock()
		if err == nil && !bytes.Equal(recv[:len(msg)], msg) {
			err = errors.New("echo differs from the request")
		}
		switch {
		case err != nil:
			// The connection's byte stream can no longer be trusted.
			p.fail("rpc request %d (%d B): %v", id, size, err)
		default:
			if !done.Before(end) {
				break
			}
			c.verified.Add(2 * int64(size))
			st.latencies = append(st.latencies, ms(done.Sub(sent)))
			if fwd, ret, ok := c.stamps.legs(id, sent, done); ok {
				st.fwd = append(st.fwd, ms(fwd))
				st.ret = append(st.ret, ms(ret))
			}
			if !dialedAt.IsZero() {
				st.firstRequest = append(st.firstRequest, ms(done.Sub(dialedAt)))
				dialedAt = time.Time{}
			}
		}
		if left--; left == 0 || err != nil {
			c.conn.Close()
			c.conn = nil
		}
	}
	return st
}

// rpcRig is one set-up instance of the rpc workload.
type rpcRig struct {
	pools       [3][]byte
	stamps      *stamps
	echo        *echoService
	exit, entry *tunnel.Endpoint
	clients     []*rpcClient
	verified    atomic.Int64
	done        chan tunnel.ConnStats
}

func (r *rpcRig) close() {
	for _, c := range r.clients {
		if c.conn != nil {
			c.conn.Close()
		}
	}
	for _, e := range []*tunnel.Endpoint{r.entry, r.exit} {
		if e != nil {
			e.Close()
		}
	}
	if r.echo != nil {
		r.echo.close()
	}
}

// rpcPools generates the request payload corpus, one pool per kind.
func rpcPools(seed uint64) [3][]byte {
	var pools [3][]byte
	for _, k := range corpus.Kinds() {
		pools[k] = corpus.Generate(k, rpcPoolBytes, seed*3+uint64(k))
	}
	return pools
}

// setupRPC starts the echo service and the tunnel pair and connects the
// clients through to the service.
func setupRPC(seed uint64, pools [3][]byte, entryCfg tunnel.Config) (r *rpcRig, err error) {
	r = &rpcRig{pools: pools, stamps: &stamps{base: time.Now()}, done: make(chan tunnel.ConnStats, 1024)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.echo, err = startEcho(r.stamps); err != nil {
		return r, err
	}
	ctx := context.Background()
	if r.exit, err = tunnel.ListenExit(ctx, "127.0.0.1:0", r.echo.ln.Addr().String(), tunnel.Config{}); err != nil {
		return r, err
	}
	entryCfg.OnDone = func(cs tunnel.ConnStats) {
		select {
		case r.done <- cs:
		default:
		}
	}
	if r.entry, err = tunnel.ListenEntry(ctx, "127.0.0.1:0", r.exit.Addr().String(), entryCfg); err != nil {
		return r, err
	}
	var nextID atomic.Uint32
	for i := 0; i < rpcClients; i++ {
		c := &rpcClient{
			addr:     r.entry.Addr().String(),
			rng:      rand.New(rand.NewPCG(seed, uint64(i))),
			pools:    r.pools,
			stamps:   r.stamps,
			nextID:   &nextID,
			verified: &r.verified,
		}
		r.clients = append(r.clients, c)
		if c.conn, err = net.Dial("tcp", c.addr); err != nil {
			return r, err
		}
	}
	// Set-up ends when both connections reach the service.
	timeout := time.After(10 * time.Second)
	for i := 0; i < rpcClients; i++ {
		select {
		case <-r.echo.accepted:
		case <-timeout:
			return r, errors.New("rpc set-up: the tunnel never reached the echo service")
		}
	}
	return r, nil
}

// runRPC runs one pass of the rpc workload.
func runRPC(o options, traced bool) (*pass, error) {
	p := newPass()
	var (
		ws *wireStats
		to *tunnelObs
	)
	cfg := tunnel.Config{}
	if traced {
		ws, to = &wireStats{}, newTunnelObs()
		cfg.Obs = to.scope
	}
	cfg.WrapWire = wrapWire(nil, ws)
	pools := rpcPools(o.seed)
	rig, setupS, err := timedSetup(func() (*rpcRig, error) { return setupRPC(o.seed, pools, cfg) }, (*rpcRig).close)
	if err != nil {
		return nil, fmt.Errorf("rpc set-up: %w", err)
	}
	defer rig.close()
	p.metrics["setup_s"] = setupS
	runtime.GC() // start the measuring time without set-up garbage
	dc := &decisionCounter{}
	if traced {
		dc.log = to.decisions
		dc.lastSeq = to.decisions.Total()
	}

	span := o.seconds
	t0 := time.Now()
	before := sampleProc()
	results := make([]rpcStats, len(rig.clients))
	var wg sync.WaitGroup
	for i, c := range rig.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = c.run(t0, span, p)
		}()
	}
	// Slice the measuring time like the bulk schedule, so goodput can be
	// taken as the median over slices.
	verified := make([]int64, rpcSlices+1)
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		onSchedule(t0, span, rpcSlices, func(i int) {
			verified[i] = rig.verified.Load()
		}, func() {
			if traced {
				dc.poll()
			}
		})
	}()
	wg.Wait()
	after := sampleProc()
	<-schedDone
	var busy time.Duration
	var wireBytes int64
	if ws != nil {
		busy, wireBytes = time.Duration(ws.busy.Load()), ws.bytes.Load()
	}

	var all rpcStats
	for _, r := range results {
		all.latencies = append(all.latencies, r.latencies...)
		all.fwd = append(all.fwd, r.fwd...)
		all.ret = append(all.ret, r.ret...)
		all.firstRequest = append(all.firstRequest, r.firstRequest...)
		all.dials += r.dials
		all.blocked += r.blocked
	}
	sliceBytes := make([]int64, rpcSlices)
	for i := range sliceBytes {
		sliceBytes[i] = verified[i+1] - verified[i]
	}
	goodput := sliceMedian(sliceBytes, span)
	p.headline = goodput
	if !traced {
		p.metrics["goodput_mbps"] = goodput
		p.metrics["latency_p50_ms"] = quantile(all.latencies, 0.50)
		p.metrics["sim_stream_hours_per_s"] = float64(rpcClients) * after.at.Sub(t0).Hours() / span.Seconds()
		p.metrics["peak_rss_mb"] = peakRSSMB()
		return p, nil
	}

	// Every connection of the pass must finish and report: the clients
	// closed them all, so the entry's compress paths end.
	conns := int(all.dials) + rpcClients
	var st stream.Stats
	timeout := time.After(drainTimeout)
	for i := 0; i < conns; i++ {
		select {
		case cs := <-rig.done:
			if cs.Err != nil && !errors.Is(cs.Err, net.ErrClosed) {
				p.fail("entry compress path: %v", cs.Err)
			}
			addStats(&st, cs.Stats)
		case <-timeout:
			p.fail("%d of %d entry compress paths never finished", conns-i, conns)
			i = conns
		}
	}
	dialed := setupRepeats*rpcClients + all.dials
	got := to.accepted.Value()
	p.metrics["tunnel.conns_accepted"] = float64(got)
	if got != dialed {
		p.fail("entry accepted %d connections, the clients dialed %d", got, dialed)
	}
	p.metrics["client.latency_p99_ms"] = quantile(all.latencies, 0.99)
	p.metrics["client.latency_samples"] = float64(len(all.latencies))
	p.metrics["client.send_blocked_share"] = all.blocked.Seconds() / (rpcClients * span.Seconds())
	p.metrics["rpc.first_request_ms_p50"] = quantile(all.firstRequest, 0.5)
	p.metrics["rpc.forward_ms_p50"] = quantile(all.fwd, 0.5)
	p.metrics["rpc.return_ms_p50"] = quantile(all.ret, 0.5)
	reportWire(p, ws, span, busy, wireBytes, st.AppBytes)
	to.report(p, st, dc)
	reportProc(p, before, after, rig.verified.Load())
	var samples [3][]byte
	for k, pool := range rig.pools {
		samples[k] = pool[:4*stream.DefaultBlockSize]
	}
	cost := timeCodecs(samples, p)
	// Sender ledger over both connections' compress paths; requests mix
	// the kinds evenly, so each level's bytes cost the kinds' mean.
	lv := to.levels()
	var covered float64
	for l := 1; l < len(levelNames); l++ {
		var c float64
		for k := range kindNames {
			c += cost.levelCost(l, k) / float64(len(kindNames))
		}
		covered += float64(lv[l]) * c
	}
	covered = covered/1e9 + busy.Seconds()
	p.metrics["ledger.unattributed_share"] = 1 - covered/(rpcClients*span.Seconds())
	return p, nil
}
