package stream

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"adaptio/internal/block"
	"adaptio/internal/compress"
	"adaptio/internal/compress/probe"
	"adaptio/internal/core"
	"adaptio/internal/obs"
	"adaptio/internal/vclock"
)

// WindowStat describes one completed decision window; it feeds the
// time-series traces of Figures 4–6.
type WindowStat struct {
	// Start and Elapsed delimit the window.
	Start   time.Time
	Elapsed time.Duration
	// AppBytes is the number of application (pre-compression) bytes
	// accepted during the window.
	AppBytes int64
	// WireBytes is the number of frame bytes (headers + payloads) passed
	// to the I/O layer during the window.
	WireBytes int64
	// Rate is AppBytes/Elapsed in bytes per second — the cdr fed to the
	// decision algorithm.
	Rate float64
	// Level is the level that was active during the window; NextLevel is
	// the decision for the following window.
	Level     int
	NextLevel int
}

// Stats aggregates writer activity.
type Stats struct {
	AppBytes      int64 // bytes accepted from the application
	WireBytes     int64 // bytes handed to the I/O layer (headers + payloads)
	Blocks        int64 // frames written
	LevelSwitches int64 // times the active level changed
	// BlocksPerLevel counts frames per ladder level index.
	BlocksPerLevel []int64
	// RawFallbacks counts blocks stored uncompressed despite a compressing
	// level: the codec failed to shrink them, or the entropy pre-probe sent
	// them straight to stored-raw framing. The probe-skipped subset is also
	// counted in ProbeSkips.
	RawFallbacks int64
	// ProbeSkips counts blocks the entropy pre-probe judged hopeless, which
	// therefore skipped the codec entirely (see WriterConfig.Probe). Wire
	// bytes are unchanged by a skip — the codec would have taken the same
	// stored-raw fallback — only the compression work is saved.
	ProbeSkips int64
	// CopiedBytes counts application bytes that crossed a user-space
	// buffer-to-buffer copy on their way to the wire: bytes staged into
	// the pending block by Write (ReadDirect fills the block in place and
	// stages nothing) plus every byte run through a codec transform.
	// Stored-raw bytes that arrived via ReadDirect ride the vectored
	// write aliasing the block and are never copied; those land in
	// PassthroughBytes instead. CopiedBytes/AppBytes is the relay's
	// bytes-copied-per-byte-relayed ratio (docs/performance.md).
	CopiedBytes int64
	// PassthroughBytes counts application bytes that reached the wire
	// without any user-space copy (stored-raw frames of unstaged bytes).
	PassthroughBytes int64
}

// WriterConfig parameterizes a Writer. The zero value gives the paper's
// configuration: the four-level default ladder, t = 2 s, 128 KB blocks,
// adaptive (DYNAMIC) level selection by Algorithm 1 with α = 0.2,
// wall-clock time.
type WriterConfig struct {
	// Ladder is the ordered compression-level ladder. Nil means
	// DefaultLadder().
	Ladder compress.Ladder
	// Window is the reconsideration interval t. Zero means 2 s.
	Window time.Duration
	// BlockSize caps the bytes buffered before a frame is cut. Zero means
	// 128 KB. Values above MaxBlockSize are invalid.
	BlockSize int
	// Policy chooses each decision window's level: the writer starts at
	// Policy.Level() and feeds it every completed window (rate plus the
	// window's app and wire byte totals). Nil means Algorithm 1 with the
	// paper defaults; core.Static(l) pins level l (the paper's static
	// baselines); core.New builds the registry policies; a coord.Stream
	// joins the fleet coordinator. The policy must be dedicated to this
	// writer (policies are not safe for concurrent use) and built for the
	// ladder's level count. The writer clamps every level it returns to
	// the ladder, so a misbehaving policy can degrade compression choices
	// but never crash the stream. A core.Decider also feeds the decision
	// event log.
	Policy core.Policy
	// Clock supplies time; nil means the wall clock.
	Clock vclock.Clock
	// OnWindow, if non-nil, is invoked after every completed decision
	// window (also in static mode, with NextLevel == Level).
	OnWindow func(WindowStat)
	// Obs, if non-nil, is the observability scope the writer registers
	// its metrics under (conventionally "<component>.stream.writer"):
	// byte/block counters (total and per level), the window app-rate
	// histogram, and the controller decision event log. A nil scope
	// keeps the writer fully functional with unregistered metrics.
	Obs *obs.Scope
	// Parallelism compresses blocks on an order-preserving worker pool of
	// the given size; 0 and 1 mean synchronous compression. Frames stay
	// strictly ordered on the wire, so the receiver needs no changes.
	Parallelism int
	// Probe overrides the entropy pre-probe consulted before each block is
	// handed to a compressing level's codec: blocks it judges hopeless
	// (near-uniform byte distribution and no recurring 4-byte windows) go
	// straight to stored-raw framing, skipping the codec — and, on the
	// direct-ingest path, staying zero-copy all the way to the wire. Nil
	// means probe.Default(); set &probe.Disabled() to run every block
	// through the codec unconditionally. Skips are counted in
	// Stats.ProbeSkips and the probe_skips metric.
	Probe *probe.Config
}

// Writer intercepts an application byte stream, compresses it adaptively and
// forwards self-describing frames to the underlying writer. It is not safe
// for concurrent use.
type Writer struct {
	dst    io.Writer
	cfg    WriterConfig
	ladder compress.Ladder
	clock  vclock.Clock
	policy core.Policy
	dec    core.Decider // policy, when it explains its decisions; else nil
	probe  probe.Config // resolved from cfg.Probe at construction

	// bufArena backs buf; scratchArena backs scratch (serial mode only —
	// pipeline workers pool their own frame buffers). Both come from the
	// block arena and return to it in Close. In parallel mode bufArena is
	// handed off whole to the pipeline on every cut block (zero copy) and
	// a fresh arena buffer takes its place.
	bufArena     *block.Buf
	scratchArena *block.Buf
	buf          []byte    // pending application bytes, cap = BlockSize
	staged       int64     // bytes of buf that arrived via Write (copied in)
	scratch      []byte    // compression scratch
	pipe         *pipeline // non-nil when Parallelism > 1

	level       int
	windowStart time.Time
	winAppBytes int64

	// statsMu guards stats and winWireBytes: with a parallel pipeline the
	// flusher goroutine accounts frames concurrently with the caller.
	statsMu      sync.Mutex
	winWireBytes int64
	stats        Stats
	obs          writerObs

	closed bool
	err    error // sticky error
}

// NewWriter creates an adaptive compression writer in front of dst.
func NewWriter(dst io.Writer, cfg WriterConfig) (*Writer, error) {
	if dst == nil {
		return nil, errors.New("stream: nil destination writer")
	}
	if cfg.Ladder == nil {
		cfg.Ladder = DefaultLadder()
	}
	if err := cfg.Ladder.Validate(); err != nil {
		return nil, err
	}
	if cfg.Window == 0 {
		cfg.Window = time.Duration(core.DefaultWindowSeconds * float64(time.Second))
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("stream: negative window %v", cfg.Window)
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.BlockSize < 1 || cfg.BlockSize > MaxBlockSize {
		return nil, fmt.Errorf("stream: block size %d out of range [1, %d]", cfg.BlockSize, MaxBlockSize)
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("stream: negative parallelism %d", cfg.Parallelism)
	}

	w := &Writer{
		dst:    dst,
		cfg:    cfg,
		ladder: cfg.Ladder,
		clock:  cfg.Clock,
		probe:  probe.Default(),
	}
	if cfg.Probe != nil {
		w.probe = *cfg.Probe
	}
	w.stats.BlocksPerLevel = make([]int64, len(cfg.Ladder))
	w.obs = newWriterObs(cfg.Obs, cfg.Ladder)

	w.policy = cfg.Policy
	if w.policy == nil {
		dec, err := core.New(core.PolicyAlgorithmOne, core.Config{Levels: len(cfg.Ladder)})
		if err != nil {
			return nil, err
		}
		w.policy = dec
	}
	w.dec, _ = w.policy.(core.Decider)
	w.level = w.policy.Level()
	if w.level < 0 || w.level >= len(cfg.Ladder) {
		return nil, fmt.Errorf("stream: policy starts at level %d outside ladder of %d levels", w.level, len(cfg.Ladder))
	}

	// All validation passed: acquire pooled buffers (released in Close).
	w.bufArena = block.Get(cfg.BlockSize)
	// Cap buf at exactly BlockSize (the arena class may be larger): the
	// write loop cuts a block when len(buf) reaches cap(buf).
	w.buf = w.bufArena.B[:0:cfg.BlockSize]
	if cfg.Parallelism > 1 {
		w.pipe = newPipeline(w.ladder, w.probe, w, cfg.Parallelism)
	} else {
		w.scratchArena = block.Get(maxFrameSize(cfg.BlockSize))
		w.scratch = w.scratchArena.B[:0]
	}
	w.windowStart = w.clock.Now()
	return w, nil
}

// writeEncodedFrame implements writeSink for the parallel pipeline: it
// pushes one finished frame downstream — vectored when the frame carries a
// stored-raw tail piece — and accounts it. The frame's buffers are owned
// (and released) by the pipeline's flusher.
func (w *Writer) writeEncodedFrame(f encodedFrame) error {
	wire := int64(len(f.frame.B))
	if f.tail == nil {
		if err := writeFull(w.dst, f.frame.B); err != nil {
			return err
		}
	} else {
		wire += int64(len(f.tail.B))
		if err := WriteVectored(w.dst, f.frame.B, f.tail.B); err != nil {
			return err
		}
	}
	// Same ledger split as the serial path: a codec transform copies every
	// raw byte once (on top of any staging copy by Write); a stored-raw
	// frame rides the vectored write aliasing the block, so its unstaged
	// bytes reach the wire copy-free.
	rawBytes := int64(f.rawLen)
	copied, passthrough := f.staged, int64(0)
	if f.codecID != compress.IDNone {
		copied += rawBytes
	} else {
		passthrough = rawBytes - f.staged
	}
	w.statsMu.Lock()
	w.accountFrame(wire, rawBytes, copied, passthrough, f.level, f.codecID, f.skipped)
	w.statsMu.Unlock()
	return nil
}

// accountFrame updates the frame counters; callers hold statsMu. copied and
// passthrough split the frame's raw bytes by user-space copy cost: copied
// counts buffer-to-buffer memcpys (staging by Write, codec transforms,
// contiguous pipeline assembly), passthrough counts bytes that reached the
// wire aliased straight out of the block with no user-space copy.
func (w *Writer) accountFrame(wireBytes, rawBytes, copied, passthrough int64, level int, codecID uint8, skipped bool) {
	w.stats.WireBytes += wireBytes
	w.winWireBytes += wireBytes
	w.stats.Blocks++
	w.stats.BlocksPerLevel[level]++
	w.stats.CopiedBytes += copied
	w.stats.PassthroughBytes += passthrough
	w.obs.wireBytes.Add(wireBytes)
	w.obs.blocks.Inc()
	w.obs.levelAppBytes[level].Add(rawBytes)
	w.obs.levelWireBytes[level].Add(wireBytes)
	w.obs.copiedBytes.Add(copied)
	w.obs.passthroughBytes.Add(passthrough)
	if codecID == compress.IDNone && w.ladder[level].Codec.ID() != compress.IDNone {
		w.stats.RawFallbacks++
		w.obs.rawFallbacks.Inc()
		if skipped {
			w.stats.ProbeSkips++
			w.obs.probeSkips.Inc()
		}
	}
}

// Level returns the currently active compression level.
func (w *Writer) Level() int { return w.level }

// Stats returns a snapshot of the writer's counters. With a parallel
// pipeline, frames still in flight are not yet counted; Flush or Close
// first for exact totals.
func (w *Writer) Stats() Stats {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	s := w.stats
	s.BlocksPerLevel = append([]int64(nil), w.stats.BlocksPerLevel...)
	return s
}

// Write implements io.Writer for application data.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, errors.New("stream: write after Close")
	}
	total := 0
	for len(p) > 0 {
		space := cap(w.buf) - len(w.buf)
		n := len(p)
		if n > space {
			n = space
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		total += n
		w.staged += int64(n)
		w.stats.AppBytes += int64(n)
		w.winAppBytes += int64(n)
		w.obs.appBytes.Add(int64(n))
		if len(w.buf) == cap(w.buf) {
			if err := w.flushBlock(); err != nil {
				w.err = err
				return total, err
			}
		}
	}
	w.maybeDecide()
	return total, nil
}

// Buffered returns the number of application bytes accepted but not yet cut
// into a frame. Relays use it to decide whether a coalescing flush deadline
// is armed (docs/performance.md, "Zero-copy relay").
func (w *Writer) Buffered() int { return len(w.buf) }

// ReadDirect performs one read from r straight into the writer's pending
// block, avoiding the staging copy a Read-into-scratch-then-Write loop pays:
// the bytes land exactly where flushBlock compresses (or, for stored-raw
// frames, vector-writes) them from. It returns the bytes read and r's error
// verbatim — including timeouts, which are NOT made sticky, so a relay can
// use read deadlines on r for flush pacing and keep going. A full block is
// cut before reading (so there is always space) and immediately after the
// read that fills it.
func (w *Writer) ReadDirect(r io.Reader) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, errors.New("stream: read after Close")
	}
	if len(w.buf) == cap(w.buf) {
		if err := w.flushBlock(); err != nil {
			w.err = err
			return 0, err
		}
	}
	n, err := r.Read(w.buf[len(w.buf):cap(w.buf)])
	if n > 0 {
		w.buf = w.buf[:len(w.buf)+n]
		w.stats.AppBytes += int64(n)
		w.winAppBytes += int64(n)
		w.obs.appBytes.Add(int64(n))
		if len(w.buf) == cap(w.buf) {
			if ferr := w.flushBlock(); ferr != nil {
				w.err = ferr
				if err == nil {
					err = ferr
				}
			}
		}
	}
	w.maybeDecide()
	return n, err
}

// ReadFrom implements io.ReaderFrom by looping ReadDirect until EOF, so
// io.Copy(w, src) moves the stream without an intermediate buffer.
func (w *Writer) ReadFrom(r io.Reader) (int64, error) {
	var total int64
	for {
		n, err := w.ReadDirect(r)
		total += int64(n)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// Flush writes any buffered partial block downstream and, with a parallel
// pipeline, waits until every in-flight frame has reached the underlying
// writer. It does not flush the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.flushBlock(); err != nil {
		w.err = err
		return err
	}
	if w.pipe != nil {
		if err := w.pipe.drain(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// Close flushes buffered data and finalizes the current decision window.
// It returns the writer's pooled buffers to the block arena, so a Writer
// must not be used after Close. It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	defer w.releaseBufs()
	if err := w.Flush(); err != nil {
		if w.pipe != nil {
			w.pipe.stop()
		}
		return err
	}
	w.finishWindow(true)
	if w.pipe != nil {
		if err := w.pipe.stop(); err != nil && w.err == nil {
			w.err = err
			return err
		}
	}
	return w.err
}

// releaseBufs returns the writer's arena buffers. Called exactly once, from
// Close (the pipeline releases in-flight block buffers itself).
func (w *Writer) releaseBufs() {
	if w.bufArena != nil {
		w.bufArena.Release()
		w.bufArena = nil
		w.buf = nil
	}
	if w.scratchArena != nil {
		w.scratchArena.Release()
		w.scratchArena = nil
		w.scratch = nil
	}
}

func (w *Writer) flushBlock() error {
	if len(w.buf) == 0 {
		return nil
	}
	staged := w.staged
	w.staged = 0
	if w.pipe != nil {
		// Hand the full arena buffer to the worker pool (zero copy;
		// the pipeline releases it once the frame is encoded) and
		// take a fresh one. The flusher accounts the frame when it
		// reaches the wire.
		full := w.bufArena
		full.B = w.buf
		w.bufArena = block.Get(w.cfg.BlockSize)
		w.buf = w.bufArena.B[:0:w.cfg.BlockSize]
		return w.pipe.submit(full, w.level, staged)
	}
	payload, codecID, skipped, scratch, err := writeFrame(w.dst, w.ladder, w.level, w.buf, w.scratch, w.probe)
	w.scratch = scratch[:0]
	w.scratchArena.B = scratch // keep any growth with the pooled buffer
	if err != nil {
		return err
	}
	rawBytes := int64(len(w.buf))
	// Serial stored-raw frames go out vectored, aliasing the block: only
	// the staged bytes were ever copied in user space. A codec transform
	// copies every raw byte once more.
	copied, passthrough := staged, int64(0)
	if codecID != compress.IDNone {
		copied += rawBytes
	} else {
		passthrough = rawBytes - staged
	}
	w.statsMu.Lock()
	w.accountFrame(int64(payload+headerSize), rawBytes, copied, passthrough, w.level, codecID, skipped)
	w.statsMu.Unlock()
	w.buf = w.buf[:0]
	return nil
}

// maybeDecide closes the current decision window if t has elapsed, feeds the
// measured application data rate to the decision model and installs the next
// level.
func (w *Writer) maybeDecide() {
	elapsed := w.clock.Now().Sub(w.windowStart)
	if elapsed < w.cfg.Window {
		return
	}
	w.finishWindow(false)
}

func (w *Writer) finishWindow(final bool) {
	now := w.clock.Now()
	elapsed := now.Sub(w.windowStart)
	if elapsed <= 0 {
		if !final {
			return
		}
		elapsed = time.Nanosecond
	}
	rate := float64(w.winAppBytes) / elapsed.Seconds()
	w.obs.windowRate.Observe(rate)
	w.statsMu.Lock()
	winWire := w.winWireBytes
	w.statsMu.Unlock()
	next := w.level
	if !final {
		next = w.policy.Observe(core.Window{Rate: rate, AppBytes: w.winAppBytes, WireBytes: winWire})
		if w.dec != nil {
			w.obs.onDecision(w.dec.LastDecision())
		}
		next = min(max(next, 0), len(w.ladder)-1)
	}
	if w.cfg.OnWindow != nil {
		w.cfg.OnWindow(WindowStat{
			Start:     w.windowStart,
			Elapsed:   elapsed,
			AppBytes:  w.winAppBytes,
			WireBytes: winWire,
			Rate:      rate,
			Level:     w.level,
			NextLevel: next,
		})
	}
	if next != w.level {
		// Cut the pending block so data buffered under the old level is
		// not compressed with the new one mid-window accounting.
		if err := w.flushBlock(); err != nil {
			w.err = err
			return
		}
		w.level = next
		w.stats.LevelSwitches++
		w.obs.levelSwitches.Inc()
	}
	w.windowStart = now
	w.winAppBytes = 0
	w.statsMu.Lock()
	w.winWireBytes = 0
	w.statsMu.Unlock()
}
