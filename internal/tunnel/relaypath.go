package tunnel

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"adaptio/internal/block"
	"adaptio/internal/obs"
	"adaptio/internal/stream"
)

// relayBufSize is the relay's data-plane unit: the pooled copy buffer of
// the passthrough fallback, the per-splice byte cap of the Linux fast path,
// and the pending-block capacity of the compress path all use it. It is
// deliberately the stream layer's block size, so relay coalescing math and
// the block arena's size classes cannot drift apart (a relay read fills at
// most one frame, and every relay buffer comes from the same arena class
// the stream layer already keeps warm).
const relayBufSize = stream.DefaultBlockSize

// DefaultFlushInterval bounds how long the compress path may hold a partial
// block waiting for more bytes before cutting a frame (Config.FlushInterval
// = 0). 5 ms trades at most one extra frame per interval against keeping
// interactive traffic moving; see docs/performance.md, "Zero-copy relay".
const DefaultFlushInterval = 5 * time.Millisecond

// relayPath is one direction of a relayed connection, run to completion on
// its own goroutine. Three implementations cover the data-path choices
// (docs/performance.md): compressPath frames and compresses plain-side
// bytes onto the wire, decompressPath decodes wire frames back to plain
// bytes, and passthroughPath moves raw bytes with no framing at all
// (Config.Passthrough). run returns nil or an error already wrapped with
// the path's name; benign teardown errors are filtered by the caller.
type relayPath interface {
	run() error
}

// compressPath relays plain -> (adaptive compression) -> wire. It owns the
// plain side's read deadlines: Config.IdleTimeout is applied as a rolling
// deadline like everywhere else, and on top of it a coalescing flush
// deadline (Config.FlushInterval) bounds how long a partial block may sit
// buffered, so low-rate traffic keeps flowing without giving up full-block
// framing under load. Bytes are read straight into the stream writer's
// pending block (Writer.ReadDirect) — the staging copy of the former
// io.CopyBuffer relay loop is gone on every level, and at NO level the
// stored-raw vectored frame path means a relayed byte is never copied in
// user space at all.
type compressPath struct {
	cfg       Config
	m         *tunnelMetrics
	direction string
	plain     net.Conn  // raw plain-side conn: reads + deadline management
	wire      io.Writer // idle-wrapped wire side (frames out)
	wireCW    halfCloser
}

func (p *compressPath) run() error {
	wcfg := p.cfg.writerConfig(p.m.streamScope)
	if p.cfg.Policy != nil {
		policy, release := p.cfg.Policy()
		defer release()
		wcfg.Policy = policy
	}
	w, err := stream.NewWriter(p.wire, wcfg)
	if err != nil {
		return err
	}
	cpErr := p.pump(w)
	if closeErr := w.Close(); cpErr == nil {
		cpErr = closeErr
	}
	cpErr = classify(cpErr)
	if errors.Is(cpErr, ErrIdleTimeout) {
		p.m.idleTimeouts.Inc()
	}
	if p.wireCW != nil {
		p.wireCW.CloseWrite() // signal EOF downstream, keep reading
	}
	st := w.Stats()
	p.m.txAppBytes.Add(st.AppBytes)
	p.m.txWireBytes.Add(st.WireBytes)
	p.m.txSwitches.Add(st.LevelSwitches)
	p.m.bytesCopied.Add(st.CopiedBytes)
	p.m.passthroughBytes.Add(st.PassthroughBytes)
	if p.cfg.OnDone != nil {
		p.cfg.OnDone(ConnStats{Direction: p.direction, Stats: st, Err: cpErr})
	}
	if cpErr != nil {
		return fmt.Errorf("compress path: %w", cpErr)
	}
	return nil
}

// pump moves plain-side bytes into the writer until EOF or error. The read
// deadline on the raw plain conn is the earlier of the idle deadline
// (last activity + IdleTimeout) and, while a partial block is pending, the
// coalescing deadline (first pending byte + FlushInterval). A deadline
// expiry therefore means one of two things, told apart by wall clock: the
// direction idled out (surface it, classify wraps it in ErrIdleTimeout) or
// the pending block waited long enough (flush it and keep reading).
func (p *compressPath) pump(w *stream.Writer) error {
	flush := p.cfg.FlushInterval
	if flush == 0 {
		flush = DefaultFlushInterval
	}
	idle := p.cfg.IdleTimeout
	lastActivity := time.Now()
	var pendingSince time.Time // zero while no partial block is buffered
	for {
		var deadline time.Time
		if idle > 0 {
			deadline = lastActivity.Add(idle)
		}
		if flush > 0 && w.Buffered() > 0 {
			if fd := pendingSince.Add(flush); deadline.IsZero() || fd.Before(deadline) {
				deadline = fd
			}
		}
		if err := p.plain.SetReadDeadline(deadline); err != nil {
			return err
		}
		before := w.Buffered()
		n, err := w.ReadDirect(p.plain)
		now := time.Now()
		if n > 0 {
			lastActivity = now
			switch {
			case w.Buffered() == 0:
				pendingSince = time.Time{}
			case w.Buffered() < before+n || pendingSince.IsZero():
				// A block was cut mid-read (the remainder is fresh) or
				// these are the first pending bytes: restart the clock.
				pendingSince = now
			}
		}
		if err == nil {
			continue
		}
		if err == io.EOF {
			return nil
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if idle > 0 && now.Sub(lastActivity) >= idle {
				return err
			}
			// Coalescing deadline: push the partial block out.
			if w.Buffered() > 0 {
				if ferr := w.Flush(); ferr != nil {
					return ferr
				}
			}
			pendingSince = time.Time{}
			continue
		}
		return err
	}
}

// decompressPath relays wire -> (decode) -> plain. io.Copy takes the
// Reader's WriteTo: non-identity blocks flow from the reader's pooled arena
// buffer to the plain conn, and identity (stored-raw) frames skip even
// that — their payload is written straight from the frame buffer after CRC
// verification.
type decompressPath struct {
	cfg     Config
	m       *tunnelMetrics
	wire    io.Reader // idle-wrapped wire side (frames in)
	plain   io.Writer // idle-wrapped plain side
	plainCW halfCloser
}

func (p *decompressPath) run() error {
	r, err := stream.NewReader(p.wire)
	if err != nil {
		return err
	}
	_, cpErr := io.Copy(p.plain, r)
	raw, wireBytes, blocks := r.Counters()
	copied, passthrough := r.CopyCounters()
	p.m.rxAppBytes.Add(raw)
	p.m.rxWireBytes.Add(wireBytes)
	p.m.rxBlocks.Add(blocks)
	p.m.bytesCopied.Add(copied)
	p.m.passthroughBytes.Add(passthrough)
	r.Close() // recycle the arena buffers if the plain side failed first
	if p.plainCW != nil {
		p.plainCW.CloseWrite()
	}
	if cpErr = classify(cpErr); cpErr != nil {
		if errors.Is(cpErr, ErrIdleTimeout) {
			p.m.idleTimeouts.Inc()
		}
		return fmt.Errorf("decompress path: %w", cpErr)
	}
	return nil
}

// passthroughPath relays src -> dst with no framing, for traffic the
// operator knows is already compressed (Config.Passthrough): on Linux with
// raw TCP conns on both sides the bytes move kernel-side via splice(2) and
// never enter user space; everywhere else (and under fault-injection
// wrappers) a pooled relayBufSize buffer stages each chunk once. Either
// way the relay performs zero user-space buffer-to-buffer copies, so every
// byte counts as passthrough in the copy-accounting metrics.
type passthroughPath struct {
	cfg        Config
	m          *tunnelMetrics
	src, dst   net.Conn
	dstCW      halfCloser
	label      string
	direction  string
	appBytes   *obs.Counter
	wireBytes  *obs.Counter
	reportDone bool // the plain->wire path mirrors the compress path's OnDone
}

func (p *passthroughPath) run() error {
	n, err := copyDirect(p.dst, p.src, p.cfg.IdleTimeout)
	err = classify(err)
	if errors.Is(err, ErrIdleTimeout) {
		p.m.idleTimeouts.Inc()
	}
	if p.dstCW != nil {
		p.dstCW.CloseWrite()
	}
	// A passthrough byte is its own wire byte (ratio 1.0 by construction).
	p.appBytes.Add(n)
	p.wireBytes.Add(n)
	p.m.passthroughBytes.Add(n)
	if p.reportDone && p.cfg.OnDone != nil {
		p.cfg.OnDone(ConnStats{
			Direction: p.direction,
			Stats:     stream.Stats{AppBytes: n, WireBytes: n, PassthroughBytes: n},
			Err:       err,
		})
	}
	if err != nil {
		return fmt.Errorf("%s: %w", p.label, err)
	}
	return nil
}

// copyDirect moves src's stream into dst until EOF: splice(2) when the
// platform and conn types allow (spliceStream), else a portable loop
// through one pooled relayBufSize buffer. Config.IdleTimeout is applied as
// the usual rolling per-operation deadline on both sides.
func copyDirect(dst, src net.Conn, idle time.Duration) (int64, error) {
	if n, ok, err := spliceStream(dst, src, idle); ok {
		return n, err
	}
	buf := block.GetLen(relayBufSize)
	defer buf.Release()
	var total int64
	for {
		if idle > 0 {
			if err := src.SetReadDeadline(time.Now().Add(idle)); err != nil {
				return total, err
			}
		}
		n, rerr := src.Read(buf.B)
		if n > 0 {
			if idle > 0 {
				if err := dst.SetWriteDeadline(time.Now().Add(idle)); err != nil {
					return total, err
				}
			}
			if werr := writeFullConn(dst, buf.B[:n]); werr != nil {
				return total, werr
			}
			total += int64(n)
		}
		if rerr != nil {
			if rerr == io.EOF {
				return total, nil
			}
			return total, rerr
		}
	}
}

// writeFullConn writes all of p, retrying short writes the way the stream
// layer's writeFull does — fault-injected transports legitimately report
// short counts with a nil error.
func writeFullConn(w io.Writer, p []byte) error {
	for len(p) > 0 {
		n, err := w.Write(p)
		if err != nil {
			return err
		}
		if n <= 0 {
			return io.ErrShortWrite
		}
		p = p[n:]
	}
	return nil
}
