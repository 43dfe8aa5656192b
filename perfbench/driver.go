package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"hwtwbg"
)

// picksLen is the length of each client's cyclic input sequence.
const picksLen = 1 << 16

// inputs is one client's pre-generated transaction inputs: the
// resources it may touch and a cyclic sequence of picks, each three
// distinct indices into names. The sequence depends only on the seed
// and the client's stream number, so the same seed gives the same
// inputs on every commit.
type inputs struct {
	names []hwtwbg.ResourceID
	picks [][3]uint16
	next  int
}

func newInputs(seed uint64, stream uint64, names []hwtwbg.ResourceID) *inputs {
	rng := rand.New(rand.NewPCG(seed, stream))
	in := &inputs{names: names, picks: make([][3]uint16, picksLen)}
	n := len(names)
	for i := range in.picks {
		a := rng.IntN(n)
		b := (a + 1 + rng.IntN(n-1)) % n
		c := rng.IntN(n)
		for c == a || c == b {
			c = rng.IntN(n)
		}
		in.picks[i] = [3]uint16{uint16(a), uint16(b), uint16(c)}
	}
	return in
}

func (in *inputs) pick() [3]uint16 {
	p := in.picks[in.next]
	in.next = (in.next + 1) % len(in.picks)
	return p
}

// resourceNames returns n resource ids "<prefix><i>".
func resourceNames(prefix string, n int) []hwtwbg.ResourceID {
	out := make([]hwtwbg.ResourceID, n)
	for i := range out {
		out[i] = hwtwbg.ResourceID(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// client is one closed-loop load generator. All of its fields belong to
// its goroutine while a phase runs and are read by the coordinator
// only after the phase has been joined.
type client struct {
	id  int
	in  *inputs
	tr  *tracer // nil when untraced
	seq uint64  // the benchmark's transaction ids, unique per run

	reqs []hwtwbg.LockRequest // LockAll scratch

	lat    []uint32      // committed-transaction latency (ns), this phase
	marks  []int         // marks[k]: index in lat of the first commit in window k
	ran    time.Duration // from the phase's start to this client's stop
	victim []uint32      // lock calls that returned ErrAborted: call to return (ns)

	committed int64 // transactions committed, this phase
	attempts  int64 // kv attempts (an Update's closure runs once per attempt)
	aborts    int64 // deadlock-aborted attempts
	failed    int64 // transactions that failed for any other reason
	err       error // the first such failure
}

func (c *client) nextTxn() uint64 {
	c.seq++
	return uint64(c.id)<<48 | c.seq
}

// noteErr records a lock call's outcome: ErrAborted is a deadlock
// victim whose wait (from the call at t0 to now) is deadlock
// persistence as the application sees it.
func (c *client) noteErr(err error, t0 time.Time) {
	if errors.Is(err, hwtwbg.ErrAborted) {
		c.aborts++
		c.victim = append(c.victim, clampNs(int64(time.Since(t0))))
	}
}

// resetPhase clears the per-phase tallies, keeping buffer capacity.
func (c *client) resetPhase() {
	c.lat, c.marks, c.victim = c.lat[:0], c.marks[:0], c.victim[:0]
	c.committed, c.attempts, c.aborts, c.failed, c.err = 0, 0, 0, 0, nil
}

// txnFunc runs one transaction, retries included, to its commit.
type txnFunc func(ctx context.Context, c *client) error

// checkEvery is how many commits a client makes between looks at the
// shared quota, deadline and stop flag.
const checkEvery = 64

// runPhase runs every client's closed loop of fn until quota
// transactions are committed in total, until the deadline passes, until
// a client's tracer is full or until a client fails, and returns the
// wall time from the common start to the last client's stop.
func runPhase(ctx context.Context, clients []*client, fn txnFunc, quota int64, deadline time.Duration, record bool) time.Duration {
	var (
		wg    sync.WaitGroup
		total atomic.Int64
		stop  atomic.Bool
		ready = make(chan struct{})
		begun time.Time // written before ready is closed
	)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			<-ready
			defer func() { c.ran = time.Since(begun) }()
			for {
				t0 := time.Now()
				err := fn(ctx, c)
				end := time.Now()
				if err != nil {
					c.failed++
					if c.err == nil {
						c.err = err
					}
					stop.Store(true)
					return
				}
				c.committed++
				if record {
					for k := int(end.Sub(begun) / window); len(c.marks) <= k; {
						c.marks = append(c.marks, len(c.lat))
					}
					c.lat = append(c.lat, clampNs(int64(end.Sub(t0))))
				}
				if c.tr != nil && c.tr.full {
					stop.Store(true)
					return
				}
				if c.committed%checkEvery == 0 &&
					(total.Add(checkEvery) >= quota || end.Sub(begun) > deadline || stop.Load()) {
					stop.Store(true)
					return
				}
			}
		}(c)
	}
	begun = time.Now()
	close(ready)
	wg.Wait()
	return time.Since(begun)
}

// window is the length of the intervals throughput and latency
// percentiles are taken over.
const window = 100 * time.Millisecond

// windowStats appends, for every window of the last phase that all
// clients ran through to its end, the window's throughput and its p50
// and p99 latency (when it has enough samples), using scratch for the
// window's samples.
func windowStats(clients []*client, tps, p50, p99 []float64, scratch []uint32) (_, _, _ []float64, _ []uint32) {
	full := math.MaxInt
	for _, c := range clients {
		full = min(full, int(c.ran/window))
	}
	at := func(c *client, k int) int {
		if k < len(c.marks) {
			return c.marks[k]
		}
		return len(c.lat)
	}
	for k := 0; k < full; k++ {
		scratch = scratch[:0]
		for _, c := range clients {
			scratch = append(scratch, c.lat[at(c, k):at(c, k+1)]...)
		}
		tps = append(tps, float64(len(scratch))/window.Seconds())
		if v, ok := percentile(scratch, 0.5); ok {
			p50 = append(p50, v)
		}
		if v, ok := percentile(scratch, 0.99); ok {
			p99 = append(p99, v)
		}
	}
	return tps, p50, p99, scratch
}
