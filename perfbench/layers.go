package main

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"time"

	"adaptio/internal/compress"
	"adaptio/internal/compress/probe"
	"adaptio/internal/corpus"
	"adaptio/internal/obs"
	"adaptio/internal/stream"
)

// namedCodec is one compressing rung of the default ladder.
type namedCodec struct {
	name  string
	codec compress.Codec
}

// codecs are the default ladder's compressing rungs: codecs[i] serves
// level i+1 (LIGHT, MEDIUM, HEAVY).
var codecs = func() []namedCodec {
	var out []namedCodec
	for _, l := range stream.DefaultLadder()[1:] {
		out = append(out, namedCodec{l.Codec.Name(), l.Codec})
	}
	return out
}()

// kindNames are the corpus kinds in corpus.Kinds order, which is also
// their corpus.Kind value.
var kindNames = func() []string {
	var out []string
	for _, k := range corpus.Kinds() {
		out = append(out, strings.ToLower(k.String()))
	}
	return out
}()

// codecCost is the measured compress cost of each codec and the cost of
// the entropy probe per corpus kind, in ns per application byte.
type codecCost struct {
	compress [3][3]float64 // [codec][kind]
	probe    [3]float64    // [kind]
}

// levelCost estimates the sender's ns per byte at a ladder level on a
// kind: the probe plus the codec, nothing at level NO.
func (c *codecCost) levelCost(level, kind int) float64 {
	if level == 0 {
		return 0
	}
	return c.probe[kind] + c.compress[level-1][kind]
}

// meanLevelCost is levelCost averaged over the kinds, for traffic that
// mixes them evenly.
func (c *codecCost) meanLevelCost(level int) float64 {
	var sum float64
	for k := range c.probe {
		sum += c.levelCost(level, k)
	}
	return sum / float64(len(c.probe))
}

// probeMinTime is how long the probe is timed per kind; one pass over a
// sample takes microseconds because the probe reads only a few KB a block.
const probeMinTime = 20 * time.Millisecond

// timeCodecs times every compressing codec and the entropy probe on
// samples[kind], blocks the workload itself generated, by calling their
// public functions block by block. Each round trip must restore the block;
// a mismatch is a failed operation.
func timeCodecs(samples [3][]byte, p *pass) *codecCost {
	cost := &codecCost{}
	var zbuf, obuf []byte
	for ci, c := range codecs {
		for ki, src := range samples {
			var comp, dec time.Duration
			for off := 0; off < len(src); off += stream.DefaultBlockSize {
				blk := src[off:min(off+stream.DefaultBlockSize, len(src))]
				t := time.Now()
				zbuf = c.codec.Compress(zbuf[:0], blk)
				comp += time.Since(t)
				t = time.Now()
				out, err := c.codec.Decompress(obuf[:0], zbuf, len(blk))
				dec += time.Since(t)
				obuf = out
				p.attempted++
				if err != nil || !bytes.Equal(out, blk) {
					p.fail("%s round trip on a %s block at offset %d: err=%v", c.name, kindNames[ki], off, err)
				}
			}
			cost.compress[ci][ki] = float64(comp) / float64(len(src))
			prefix := "codec." + c.name + "." + kindNames[ki]
			p.metrics[prefix+".compress_ns_per_byte"] = cost.compress[ci][ki]
			p.metrics[prefix+".decompress_ns_per_byte"] = float64(dec) / float64(len(src))
		}
	}
	cfg := probe.Default()
	for ki, src := range samples {
		var n int
		start := time.Now()
		for time.Since(start) < probeMinTime {
			for off := 0; off < len(src); off += stream.DefaultBlockSize {
				blk := src[off:min(off+stream.DefaultBlockSize, len(src))]
				sink = cfg.Hopeless(blk)
				n += len(blk)
			}
		}
		cost.probe[ki] = float64(time.Since(start)) / float64(n)
		p.metrics["probe."+kindNames[ki]+".ns_per_byte"] = cost.probe[ki]
	}
	return cost
}

// sink keeps the timed probe calls from being optimised away.
var sink bool

// procSample is a point-in-time reading of the process's cost counters.
type procSample struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	gc    uint32
}

func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{at: time.Now(), cpu: cpuTime(), alloc: m.TotalAlloc, gc: m.NumGC}
}

// tunnelObs holds the entry endpoint's obs instruments the traced passes
// read. They are created before the endpoint starts; the endpoint and its
// stream writers then register the same names and share these instances.
type tunnelObs struct {
	scope      *obs.Scope
	accepted   *obs.Counter
	levelBytes []*obs.Counter
	decisions  *obs.EventLog
}

func newTunnelObs() *tunnelObs {
	scope := obs.NewRegistry().Scope("tunnel")
	writer := scope.Scope("stream").Scope("writer")
	t := &tunnelObs{
		scope:     scope,
		accepted:  scope.Scope("conns").Counter("accepted"),
		decisions: writer.EventLog("decisions", 0),
	}
	fam := writer.CounterFamily("app_bytes", "level")
	for i := range levelNames {
		t.levelBytes = append(t.levelBytes, fam.With(strconv.Itoa(i)))
	}
	return t
}

func (t *tunnelObs) levels() [4]int64 {
	var out [4]int64
	for i, c := range t.levelBytes {
		out[i] = c.Value()
	}
	return out
}

// decisionCounter tallies the controller's decisions from the obs event
// log. The log is a bounded ring, so it is polled often enough that no
// event is evicted unseen; missed counts any that were.
type decisionCounter struct {
	log                     *obs.EventLog
	lastSeq                 uint64
	lastKind                string
	probes, reverts, wasted int64
	missed                  uint64
}

// poll consumes the events appended since the last poll. A wasted probe is
// a revert whose preceding logged decision was a probe, the same pairing
// the deciders count internally.
func (d *decisionCounter) poll() {
	for _, e := range d.log.Events() {
		if e.Seq <= d.lastSeq {
			continue
		}
		if e.Seq != d.lastSeq+1 {
			d.missed += e.Seq - d.lastSeq - 1
			d.lastKind = ""
		}
		switch e.Kind {
		case "probe":
			d.probes++
		case "revert":
			d.reverts++
			if d.lastKind == "probe" {
				d.wasted++
			}
		}
		d.lastKind = e.Kind
		d.lastSeq = e.Seq
	}
}

// report writes the stream- and core-layer metrics of a traced tunnel
// pass: st sums the sender-side stats of every finished connection.
func (t *tunnelObs) report(p *pass, st stream.Stats, dc *decisionCounter) {
	lv := t.levels()
	var total int64
	for _, b := range lv {
		total += b
	}
	for i, b := range lv {
		p.metrics["stream.level_share."+levelNames[i]] = safeDiv(float64(b), float64(total))
	}
	p.metrics["stream.level_switches"] = float64(st.LevelSwitches)
	p.metrics["stream.probe_skip_share"] = safeDiv(float64(st.ProbeSkips), float64(st.Blocks))
	p.metrics["stream.copied_per_byte"] = safeDiv(float64(st.CopiedBytes), float64(st.AppBytes))
	p.metrics["stream.mean_frame_bytes"] = safeDiv(float64(st.WireBytes), float64(st.Blocks))
	dc.poll()
	if dc.missed > 0 {
		p.fail("decision log evicted %d events before they were read", dc.missed)
	}
	p.metrics["core.probes"] = float64(dc.probes)
	p.metrics["core.reverts"] = float64(dc.reverts)
	p.metrics["core.wasted_probes"] = float64(dc.wasted)
}

// addStats sums the sender-side stream stats that report reads across
// connections.
func addStats(a *stream.Stats, b stream.Stats) {
	a.AppBytes += b.AppBytes
	a.WireBytes += b.WireBytes
	a.Blocks += b.Blocks
	a.LevelSwitches += b.LevelSwitches
	a.ProbeSkips += b.ProbeSkips
	a.CopiedBytes += b.CopiedBytes
}

// reportWire writes the wire-wrapper metrics of a traced tunnel pass.
// busy and wireBytes are the wrapper's counters over the measuring time
// span; the per-byte ratios use whole-connection totals.
func reportWire(p *pass, ws *wireStats, span time.Duration, busy time.Duration, wireBytes int64, appBytes int64) {
	p.metrics["wire.tx_busy_share"] = busy.Seconds() / span.Seconds()
	p.metrics["wire.tx_mbps"] = float64(wireBytes) / span.Seconds() / 1e6
	p.metrics["wire.writes_per_mb"] = safeDiv(float64(ws.writes.Load()), float64(appBytes)/1e6)
	p.metrics["wire.bytes_per_app_byte"] = safeDiv(float64(ws.bytes.Load()), float64(appBytes))
}

// reportProc writes the process-layer metrics between two samples.
func reportProc(p *pass, a, b procSample, appBytes int64) {
	p.metrics["proc.cpu_ns_per_byte"] = safeDiv(float64(b.cpu-a.cpu), float64(appBytes))
	p.metrics["proc.alloc_bytes_per_mb"] = safeDiv(float64(b.alloc-a.alloc), float64(appBytes)/1e6)
	p.metrics["proc.gc_cycles"] = float64(b.gc - a.gc)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
