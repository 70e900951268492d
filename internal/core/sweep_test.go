package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// goid names the calling goroutine (the "goroutine N" of its stack
// header) — the only way to observe that no goroutine was spawned.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

func noPanic(t *testing.T) func(int, any, string) {
	return func(i int, v any, _ string) { t.Errorf("item %d panicked: %v", i, v) }
}

// TestSweepExecutor pins the one worker pool every sweep runs on, over
// sizes around the chunk boundary and worker counts below, at and above
// the item count. Only workers that can claim a chunk are built: at most
// ceil(n/sweepChunk), so a 15-item sweep stays on the caller.
func TestSweepExecutor(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 1000} {
		for _, workers := range []int{1, 2, 8, n + 5} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				want := max(min(workers, (n+sweepChunk-1)/sweepChunk), 1) // clamped worker count
				caller := goid()

				// Every index runs exactly once; bodies are built one per
				// worker, on the calling goroutine; the slowest item is the
				// one the body reported; one worker means no goroutine.
				visited := make([]int32, n)
				var ran atomic.Int64
				built := 0
				res := Sweep(context.Background(), n, workers, func(*trace.Span) SweepBody {
					if built++; goid() != caller {
						t.Errorf("body %d built off the calling goroutine", built)
					}
					return func(i int) time.Duration {
						ran.Add(1)
						atomic.AddInt32(&visited[i], 1)
						if want == 1 && goid() != caller {
							t.Errorf("one-worker sweep left the calling goroutine")
						}
						if i == n/2 {
							return time.Hour
						}
						return time.Duration(i%5) * time.Second
					}
				}, noPanic(t))
				if built != want {
					t.Errorf("built %d bodies, want %d", built, want)
				}
				for i, c := range visited {
					if c != 1 {
						t.Fatalf("index %d visited %d times", i, c)
					}
				}
				if res.Skipped != 0 || res.Panicked != 0 {
					t.Errorf("clean sweep reported %+v", res)
				}
				if n > 0 && (res.SlowIndex != n/2 || res.SlowTime != time.Hour) {
					t.Errorf("slowest = %d (%v), want %d (1h)", res.SlowIndex, res.SlowTime, n/2)
				}
				if n == 0 && res.SlowIndex != -1 {
					t.Errorf("empty sweep named slow item %d", res.SlowIndex)
				}

				// A panicking index is reported with its evidence, and every
				// other index still runs.
				ran.Store(0)
				bad, reports := n/3, 0
				res = Sweep(context.Background(), n, workers, func(*trace.Span) SweepBody {
					return func(i int) time.Duration {
						if i == bad {
							panic("boom")
						}
						ran.Add(1)
						return 0
					}
				}, func(i int, v any, stack string) {
					reports++
					if i != bad || v != "boom" || stack == "" {
						t.Errorf("panic report = (%d, %v, %d-byte stack)", i, v, len(stack))
					}
				})
				if n > 0 && (reports != 1 || res.Panicked != 1 || int(ran.Load()) != n-1) {
					t.Errorf("panic sweep: %d reports, %+v, %d others ran (want 1, 1, %d)",
						reports, res, ran.Load(), n-1)
				}
				if res.SlowIndex != -1 {
					t.Errorf("untimed sweep named slow item %d", res.SlowIndex)
				}

				// Cancelled mid-sweep: each worker stops within the chunk it
				// holds, the rest is reported skipped, nothing is lost. The
				// count and the cancel share a lock so no item runs between
				// the fourth and the cancel.
				ran.Store(0)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var cancelMu sync.Mutex
				res = Sweep(ctx, n, workers, func(*trace.Span) SweepBody {
					return func(int) time.Duration {
						cancelMu.Lock()
						defer cancelMu.Unlock()
						if ran.Add(1) == 4 {
							cancel()
						}
						return 0
					}
				}, noPanic(t))
				if got := int(ran.Load()); got+res.Skipped != n || got > sweepChunk*want {
					t.Errorf("cancelled sweep ran %d + skipped %d of %d (at most %d may run)",
						got, res.Skipped, n, sweepChunk*want)
				}
				if n >= 4+sweepChunk*want && res.Skipped == 0 {
					t.Errorf("cancelled sweep skipped nothing")
				}

				// Cancelled before it starts: nothing runs.
				cancel()
				res = Sweep(ctx, n, workers, func(*trace.Span) SweepBody {
					return func(i int) time.Duration {
						t.Errorf("item %d ran under a cancelled context", i)
						return 0
					}
				}, noPanic(t))
				if res.Skipped != n {
					t.Errorf("pre-cancelled sweep skipped %d of %d", res.Skipped, n)
				}
			})
		}
	}
}
