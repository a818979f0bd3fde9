package ratelimit

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

func TestValidation(t *testing.T) {
	if _, err := NewWriter(nil, 100, 0); err == nil {
		t.Error("nil writer accepted")
	}
	if _, err := NewWriter(io.Discard, 0, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewWriter(io.Discard, -5, 0); err == nil {
		t.Error("negative rate accepted")
	}
	w, err := NewWriter(io.Discard, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetRate(-1); err == nil {
		t.Error("negative SetRate accepted")
	}
}

// fakeTime lets the token bucket run on virtual time so the test is exact
// and instant.
type fakeTime struct {
	now     time.Time
	slept   time.Duration
	history []time.Duration
}

func (f *fakeTime) Now() time.Time { return f.now }

func (f *fakeTime) Sleep(d time.Duration) {
	f.slept += d
	f.history = append(f.history, d)
	f.now = f.now.Add(d)
}

func newVirtual(t *testing.T, dst io.Writer, rate float64, burst int) (*Writer, *fakeTime) {
	t.Helper()
	w, err := NewWriter(dst, rate, burst)
	if err != nil {
		t.Fatal(err)
	}
	ft := &fakeTime{now: time.Unix(1e9, 0)}
	w.now = ft.Now
	w.sleep = ft.Sleep
	return w, ft
}

func TestRateEnforcedVirtualTime(t *testing.T) {
	var buf bytes.Buffer
	// 1 MB/s, small burst.
	w, ft := newVirtual(t, &buf, 1e6, 64<<10)
	data := make([]byte, 10<<20) // 10 MB
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	// 10 MB at 1 MB/s should take ~10 s of (virtual) sleeping, minus the
	// initial burst allowance.
	got := ft.slept.Seconds()
	if got < 9 || got > 10.5 {
		t.Fatalf("slept %.2f s for 10 MB at 1 MB/s", got)
	}
	if buf.Len() != len(data) {
		t.Fatalf("wrote %d of %d", buf.Len(), len(data))
	}
}

func TestBurstPassesWithoutSleep(t *testing.T) {
	var buf bytes.Buffer
	w, ft := newVirtual(t, &buf, 1e6, 1<<20)
	if _, err := w.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if ft.slept != 0 {
		t.Fatalf("initial burst slept %v", ft.slept)
	}
}

func TestSetRateTakesEffect(t *testing.T) {
	var buf bytes.Buffer
	w, ft := newVirtual(t, &buf, 1e6, 1024)
	if _, err := w.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	before := ft.slept
	if err := w.SetRate(4e6); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	second := ft.slept - before
	if second > before/2 {
		t.Fatalf("4x rate did not speed up: first %.2fs, second %.2fs", before.Seconds(), second.Seconds())
	}
}

type errAfter struct{ n int }

func (e *errAfter) Write(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, errors.New("broken")
	}
	e.n -= len(p)
	return len(p), nil
}

func TestUnderlyingErrorSurfaces(t *testing.T) {
	w, _ := newVirtual(t, &errAfter{n: 100}, 1e9, 64)
	if _, err := w.Write(make([]byte, 1024)); err == nil {
		t.Fatal("underlying error swallowed")
	}
}

func TestRealTimeSmoke(t *testing.T) {
	// A tiny real-time sanity check: 200 KB at 2 MB/s takes ~100 ms.
	w, err := NewWriter(io.Discard, 2e6, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := w.Write(make([]byte, 200<<10)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 50*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("200 KB at 2 MB/s took %v", elapsed)
	}
}

// TestOversleepCreditedBack: a host sleep timer that overshoots every sleep
// (by less than burst/rate) must not lower the delivered rate — the time
// lost to one oversleep is credited to the next write.
func TestOversleepCreditedBack(t *testing.T) {
	const burst = 64 << 10
	for _, rate := range []float64{11e6, 80e6, 1000e6} {
		w, ft := newVirtual(t, io.Discard, rate, burst)
		over := time.Duration(0.9 * burst / rate * float64(time.Second))
		w.sleep = func(d time.Duration) { ft.Sleep(d + over) }
		const total = 4096 * burst
		start := ft.now
		for i := 0; i < total/burst; i++ {
			if _, err := w.Write(make([]byte, burst)); err != nil {
				t.Fatal(err)
			}
		}
		// The first burst rides the initial bucket; only the final
		// oversleep is never paid back.
		elapsed := ft.now.Sub(start)
		want := time.Duration(float64(total-burst) / rate * float64(time.Second))
		if elapsed < want || elapsed > want+over+time.Microsecond {
			t.Errorf("%.0f MB/s with %v oversleep: %v for %d bytes, want %v (+ at most one oversleep)",
				rate/1e6, over, elapsed, total, want)
		}
	}
}
