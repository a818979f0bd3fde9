package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"adaptio/internal/cloudsim"
	"adaptio/internal/corpus"
	"adaptio/internal/scenario"
	"adaptio/internal/stream"
	"adaptio/internal/tunnel"
)

// phase is one step of the bulk workloads' run-clock schedule: k
// background connections share the NIC with the transfer while the
// generator emits corpus kind.
type phase struct {
	k    int
	kind corpus.Kind
}

func (ph phase) name() string { return fmt.Sprintf("k%d.%s", ph.k, kindNames[ph.kind]) }

// wanPhases visits every (k, kind) pair in a fixed order. Both schedules
// are bound to the run clock, not to transferred volume, so the rate and
// kind steps cannot drift apart and every run sees every pair for the same
// time.
var wanPhases = func() []phase {
	var out []phase
	for k := 0; k <= 3; k++ {
		for _, kind := range corpus.Kinds() {
			out = append(out, phase{k, kind})
		}
	}
	return out
}()

const (
	// wanBaseRate is the uncontended wire rate: the paper's 1 Gbit/s
	// achievable application rate. Phase k gets NetShare(k) of it.
	wanBaseRate = scenario.DefaultNICMBps * 1e6
	// paceCredit is how far the pacer's virtual clock may trail real time,
	// the emulated NIC queue (1.0-2.8 MB at the phase rates): enough to
	// absorb a 1 ms-tick sleep's overshoot plus a stalled vCPU on a
	// shared 2-vCPU machine, small next to a phase. A real NIC keeps
	// sending from its queue while the sender is descheduled; on a loaded
	// host, wake-ups more than 10 ms late were common enough to cost a
	// phase over 2% of its link time.
	paceCredit = 25 * time.Millisecond
	// rateErrorTolerance bounds each phase's wire.rate_error.
	rateErrorTolerance = 0.02
	// bulkWindow is the decision window t of both bulk workloads. Each
	// phase of a 25 s run lasts about 2.1 s, so it spans eight windows. With
	// 100 ms windows the rate of a single window was noisy enough on a
	// shared 2-vCPU machine to trigger extra probes, and wan-bulk's
	// goodput spread doubled.
	bulkWindow = 250 * time.Millisecond
	// chunkSize is the generator's write unit and the sink's verify unit.
	chunkSize = 256 << 10
	// windowChunks bounds the chunks in flight between the generator's
	// write and the sink's verification, as a windowed bulk protocol
	// does. Without it the generator fills whatever the kernel's socket
	// buffer autotuning allows, which makes chunk latency and the lag
	// between the kind and rate schedules vary from run to run.
	windowChunks = 8
	// poolChunks is the number of distinct chunks generated per kind.
	poolChunks = 16
	// bulkWarmup is how long the transfer runs at the first phase's
	// conditions before the measuring time starts. The decider's first
	// probes then fall outside it: without the warm-up, how fast they
	// reached LIGHT moved the first phases' goodput by up to 40%. The
	// workload stands for one long transfer, which pays that start once.
	bulkWarmup = 2 * time.Second
	// drainTimeout bounds the wait for in-flight bytes after the
	// measuring time ends.
	drainTimeout = 20 * time.Second
)

// pools holds the seeded corpus the bulk generator draws from. Chunk i of
// the stream, when the schedule says kind, is pools.chunk(kind, i), so the
// sink can regenerate the expected bytes from the chunk index and kind.
type pools struct {
	seed   uint64
	chunks [3][][]byte
}

func newPools(seed uint64, chunk, n int) *pools {
	p := &pools{seed: seed}
	for _, k := range corpus.Kinds() {
		data := corpus.Generate(k, chunk*n, seed*3+uint64(k))
		for i := 0; i < n; i++ {
			p.chunks[k] = append(p.chunks[k], data[i*chunk:(i+1)*chunk])
		}
	}
	return p
}

func (p *pools) chunk(kind corpus.Kind, i int) []byte {
	c := p.chunks[kind]
	// 7 is coprime to poolChunks, so consecutive chunks differ.
	return c[(uint64(i)*7+p.seed)%uint64(len(c))]
}

// samples returns the first bytes of each kind's pool, for codec timing.
func (p *pools) samples(n int) [3][]byte {
	var out [3][]byte
	for k := range p.chunks {
		for _, c := range p.chunks[k] {
			if len(out[k]) >= n {
				break
			}
			out[k] = append(out[k], c...)
		}
	}
	return out
}

// chunkLog is the generator's record of what it sent: the kind and send
// instant of every chunk, in order. The sink reads it to know which bytes
// to expect.
type chunkLog struct {
	mu    sync.Mutex
	kinds []corpus.Kind
	sent  []time.Time
}

func (l *chunkLog) add(kind corpus.Kind, at time.Time) {
	l.mu.Lock()
	l.kinds = append(l.kinds, kind)
	l.sent = append(l.sent, at)
	l.mu.Unlock()
}

func (l *chunkLog) get(i int) (corpus.Kind, time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= len(l.kinds) {
		return 0, time.Time{}, false
	}
	return l.kinds[i], l.sent[i], true
}

func (l *chunkLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.kinds)
}

// sinkResult is what the bulk sink verified.
type sinkResult struct {
	chunks    int   // complete chunks read
	goodBytes int64 // bytes verified within the measuring time
	// phaseBytes and phaseLat split the verified chunks by the schedule
	// phase in which they were verified.
	phaseBytes []int64
	phaseLat   [][]float64
	err        error // a read error other than a clean EOF at a chunk boundary
}

// verifySink reads chunk after chunk from r and compares each with the
// bytes the generator logged for it. Chunks verified within the measuring
// time [t0, t0+span) count toward goodput and latency. Each chunk read
// frees one slot of window, if given.
func verifySink(r io.Reader, pl *pools, log *chunkLog, t0 time.Time, span time.Duration, window chan struct{}, p *pass) sinkResult {
	res := sinkResult{phaseBytes: make([]int64, len(wanPhases)), phaseLat: make([][]float64, len(wanPhases))}
	buf := make([]byte, chunkSize)
	for i := 0; ; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			if err != io.EOF {
				res.err = err
			}
			return res
		}
		res.chunks++
		if window != nil {
			<-window
		}
		kind, sent, ok := log.get(i)
		if !ok || !bytes.Equal(buf, pl.chunk(kind, i)) {
			p.fail("bulk chunk %d: received bytes differ from the generated stream", i)
			continue
		}
		now := time.Now()
		if ph := phaseIndex(now.Sub(t0), span); ph >= 0 && ph < len(wanPhases) {
			res.goodBytes += chunkSize
			res.phaseBytes[ph] += chunkSize
			res.phaseLat[ph] = append(res.phaseLat[ph], ms(now.Sub(sent)))
		}
	}
}

// phaseIndex returns the schedule phase at elapsed time into a run of the
// given span: -1 during the warm-up, len(wanPhases) once the span is over.
func phaseIndex(elapsed, span time.Duration) int {
	if elapsed < 0 {
		return -1
	}
	return min(int(elapsed*time.Duration(len(wanPhases))/span), len(wanPhases))
}

// bulkRig is one set-up instance of a bulk workload: a sink, the tunnel
// pair and a connected generator.
type bulkRig struct {
	pools       *pools
	sinkLn      net.Listener
	exit, entry *tunnel.Endpoint
	client      *net.TCPConn
	sinkConn    net.Conn
	done        chan tunnel.ConnStats
}

func (r *bulkRig) close() {
	for _, c := range []io.Closer{r.client, r.sinkConn, r.sinkLn} {
		if c != nil {
			c.Close()
		}
	}
	for _, e := range []*tunnel.Endpoint{r.entry, r.exit} {
		if e != nil {
			e.Close()
		}
	}
}

// setupBulk starts the sink and the tunnel pair and connects the
// generator through to the sink.
func setupBulk(pl *pools, entryCfg tunnel.Config) (r *bulkRig, err error) {
	r = &bulkRig{pools: pl, done: make(chan tunnel.ConnStats, 4)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.sinkLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return r, err
	}
	ctx := context.Background()
	if r.exit, err = tunnel.ListenExit(ctx, "127.0.0.1:0", r.sinkLn.Addr().String(), tunnel.Config{Window: bulkWindow}); err != nil {
		return r, err
	}
	entryCfg.Window = bulkWindow
	entryCfg.OnDone = func(cs tunnel.ConnStats) { r.done <- cs }
	if r.entry, err = tunnel.ListenEntry(ctx, "127.0.0.1:0", r.exit.Addr().String(), entryCfg); err != nil {
		return r, err
	}
	c, err := net.Dial("tcp", r.entry.Addr().String())
	if err != nil {
		return r, err
	}
	r.client = c.(*net.TCPConn)
	r.sinkConn, err = acceptWithin(r.sinkLn, 10*time.Second)
	return r, err
}

// acceptWithin accepts one connection or fails after d.
func acceptWithin(ln net.Listener, d time.Duration) (net.Conn, error) {
	if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(d)); err != nil {
		return nil, err
	}
	c, err := ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("waiting for the tunnel to reach the service: %w", err)
	}
	return c, nil
}

// sliceMedian returns the median over the schedule's slices of the
// goodput (MB/s), from the bytes verified in each slice.
func sliceMedian(bytes []int64, span time.Duration) float64 {
	slice := span.Seconds() / float64(len(bytes))
	var rates []float64
	for _, b := range bytes {
		rates = append(rates, float64(b)/slice/1e6)
	}
	return median(rates)
}

// phaseSnap is the cumulative state of the counters that are split by
// phase, read at each phase boundary.
type phaseSnap struct {
	lost, occupied time.Duration
	// wireBusy and wireBytes are the wire wrapper's counters (traced).
	wireBusy  time.Duration
	wireBytes int64
	levels    [4]int64
}

// runBulk runs one pass of wan-bulk (throttled) or lan-bulk.
func runBulk(o options, throttled, traced bool) (*pass, error) {
	p := newPass()
	var pace *pacer
	if throttled {
		pace = newPacer(wanBaseRate*cloudsim.NetShare(wanPhases[0].k), paceCredit)
	}
	var (
		ws *wireStats
		to *tunnelObs
	)
	cfg := tunnel.Config{}
	if traced {
		ws, to = &wireStats{}, newTunnelObs()
		cfg.Obs = to.scope
	}
	cfg.WrapWire = wrapWire(pace, ws)
	pl := newPools(o.seed, chunkSize, poolChunks)
	rig, setupS, err := timedSetup(func() (*bulkRig, error) { return setupBulk(pl, cfg) }, (*bulkRig).close)
	if err != nil {
		return nil, fmt.Errorf("bulk set-up: %w", err)
	}
	defer rig.close()
	p.metrics["setup_s"] = setupS
	runtime.GC() // start the measuring time without set-up garbage

	log := &chunkLog{}
	span := o.seconds
	t0 := time.Now().Add(bulkWarmup)
	end := t0.Add(span)
	if err := rig.sinkConn.SetReadDeadline(end.Add(drainTimeout)); err != nil {
		return nil, err
	}
	var before procSample
	dc := &decisionCounter{}

	// The schedule steps the pacer's rate and snapshots the per-phase
	// counters on the run clock.
	snaps := make([]phaseSnap, len(wanPhases)+1)
	snap := func() phaseSnap {
		var s phaseSnap
		if pace != nil {
			s.lost, s.occupied = pace.counters()
		}
		if traced {
			s.levels = to.levels()
			s.wireBusy, s.wireBytes = time.Duration(ws.busy.Load()), ws.bytes.Load()
			dc.poll()
		}
		return s
	}
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		time.Sleep(time.Until(t0))
		before = sampleProc()
		if traced {
			dc.log = to.decisions
			dc.lastSeq = to.decisions.Total()
		}
		snaps[0] = snap()
		onSchedule(t0, span, len(wanPhases), func(i int) {
			snaps[i] = snap()
			if pace != nil && i < len(wanPhases) {
				pace.setRate(wanBaseRate * cloudsim.NetShare(wanPhases[i].k))
			}
		}, func() {
			if traced {
				dc.poll()
			}
		})
	}()

	sinkDone := make(chan sinkResult, 1)
	sinkStopped := make(chan struct{})
	window := make(chan struct{}, windowChunks)
	go func() {
		defer close(sinkStopped)
		sinkDone <- verifySink(rig.sinkConn, rig.pools, log, t0, span, window, p)
	}()

	// blocked is the time the generator waited for a window slot or for
	// the socket to take a chunk.
	var blocked time.Duration
generate:
	for i := 0; ; i++ {
		wait := time.Now()
		select {
		case window <- struct{}{}:
		case <-sinkStopped:
			break generate
		}
		now := time.Now()
		if !now.Before(end) {
			break
		}
		kind := wanPhases[min(max(phaseIndex(now.Sub(t0), span), 0), len(wanPhases)-1)].kind
		if !throttled {
			kind = corpus.Kinds()[i%3]
		}
		log.add(kind, now)
		if _, err := rig.client.Write(rig.pools.chunk(kind, i)); err != nil {
			p.fail("generator write of chunk %d: %v", i, err)
			break
		}
		if !wait.Before(t0) {
			blocked += time.Since(wait)
		}
	}
	after := sampleProc()
	if err := rig.client.CloseWrite(); err != nil {
		p.fail("generator half-close: %v", err)
	}
	<-schedDone
	res := <-sinkDone
	sent := log.len()
	p.attempted += int64(sent)
	if res.err != nil {
		p.fail("sink read after %d of %d chunks: %v", res.chunks, sent, res.err)
	}
	if missing := sent - res.chunks; missing > 0 {
		for j := 0; j < missing; j++ {
			p.fail("bulk chunk %d never arrived", res.chunks+j)
		}
	}
	var st stream.Stats
	select {
	case cs := <-rig.done:
		if cs.Err != nil && !errors.Is(cs.Err, net.ErrClosed) {
			p.fail("entry compress path: %v", cs.Err)
		}
		st = cs.Stats
	case <-time.After(drainTimeout):
		p.fail("entry compress path never finished")
	}

	// wan-bulk's phases differ by design, so its rates are the whole
	// cycle's; lan-bulk's phases are alike, so it takes the median phase,
	// which a burst of load from outside the benchmark cannot move.
	goodput := float64(res.goodBytes) / span.Seconds() / 1e6
	if !throttled {
		goodput = sliceMedian(res.phaseBytes, span)
	}
	p.headline = goodput
	rateErr := 0.0
	for i, ph := range wanPhases {
		lost := (snaps[i+1].lost - snaps[i].lost).Seconds()
		occ := (snaps[i+1].occupied - snaps[i].occupied).Seconds()
		e := safeDiv(lost, lost+occ)
		rateErr = max(rateErr, e)
		if e > rateErrorTolerance {
			p.fail("wire.rate_error in phase %s is %.4f, above the %.2f tolerance", ph.name(), e, rateErrorTolerance)
		}
		if traced && throttled {
			p.metrics["wire.rate_error."+ph.name()] = e
		}
	}
	// The p50 is the median over phases of each phase's median chunk
	// latency, so every phase weighs the same. Pooled, wan-bulk's fast
	// phases carry most chunks, and the pooled median sat where a few
	// chunks more or less moved it between two phases' levels.
	var lat, phaseP50 []float64
	for _, l := range res.phaseLat {
		lat = append(lat, l...)
		if len(l) > 0 {
			phaseP50 = append(phaseP50, quantile(l, 0.50))
		}
	}
	if !traced {
		p.metrics["goodput_mbps"] = goodput
		p.metrics["latency_p50_ms"] = median(phaseP50)
		p.metrics["sim_stream_hours_per_s"] = after.at.Sub(t0).Hours() / span.Seconds()
		p.metrics["peak_rss_mb"] = peakRSSMB()
		return p, nil
	}

	p.metrics["client.latency_p99_ms"] = quantile(lat, 0.99)
	p.metrics["client.latency_samples"] = float64(len(lat))
	p.metrics["wire.rate_error"] = rateErr
	p.metrics["client.send_blocked_share"] = blocked.Seconds() / span.Seconds()
	// Every set-up instance dialed the entry once.
	got := to.accepted.Value()
	p.metrics["tunnel.conns_accepted"] = float64(got)
	if got != setupRepeats {
		p.fail("entry accepted %d connections, the generator dialed %d", got, setupRepeats)
	}
	first, last := snaps[0], snaps[len(wanPhases)]
	busy := last.wireBusy - first.wireBusy
	reportWire(p, ws, span, busy, last.wireBytes-first.wireBytes, st.AppBytes)
	to.report(p, st, dc)
	reportProc(p, before, after, res.goodBytes)
	cost := timeCodecs(rig.pools.samples(4*stream.DefaultBlockSize), p)
	// Sender ledger: the share of the entry compress path's wall time
	// covered by wire writes plus the estimated probe and codec time of
	// the bytes each level carried in each phase.
	var covered float64
	for i, ph := range wanPhases {
		for lv := 1; lv < len(levelNames); lv++ {
			c := cost.meanLevelCost(lv)
			if throttled {
				c = cost.levelCost(lv, int(ph.kind))
			}
			covered += float64(snaps[i+1].levels[lv]-snaps[i].levels[lv]) * c
		}
	}
	covered = covered/1e9 + busy.Seconds()
	p.metrics["ledger.unattributed_share"] = 1 - covered/span.Seconds()
	return p, nil
}
