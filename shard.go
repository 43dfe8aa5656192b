package hwtwbg

import (
	"sort"
	"sync"
	"sync/atomic"

	"hwtwbg/internal/table"
	"hwtwbg/journal"
)

// shard is one stripe of the sharded lock-table facade: a sequential
// lock table, the mutex that serializes it, and the waiter channels of
// the transactions blocked on its resources. A resource lives entirely
// in the shard its id hashes to, so non-conflicting transactions on
// different resources never touch the same mutex; grant hand-off from a
// commit/abort stays within the shard, because a resource's waiters are
// by construction waiting in the resource's shard.
type shard struct {
	mu      sync.Mutex
	tb      *table.Table
	waiters map[TxnID]chan struct{} // signalled (one token) when the waiter should re-check its fate
	met     *shardMetrics           // this shard's padded metric block (atomic; readable without mu)
	jr      *journal.Ring           // this shard's flight-recorder ring (lock-free; nil when disabled)
	epoch   shardEpoch              // mutation version of tb; see shardEpoch

	// fc is the shard's flat-combining publication array: a requester
	// that finds mu contended CASes its request record into a nil slot
	// and spins on the record's done flag; whoever holds the mutex
	// drains the slots before unlocking (drainPending), applying the
	// published requests on its own mutex round. MPSC by construction —
	// publishers only CAS nil→req, and only the mutex holder swaps a
	// slot back to nil.
	fc [fcSlots]atomic.Pointer[fcRequest]
}

// shardEpoch is a shard table's mutation version: a monotonically
// increasing counter bumped — while holding the owning shard's mutex —
// by every mutex round that mutates the shard's lock table (grant,
// block, conversion, release, abort, LockAll batch, flat-combining
// apply, detector surgery). The incremental snapshot detector loads it
// without the mutex to decide whether the copy it took of the shard
// last activation is still current; an unchanged epoch proves the
// table is byte-identical to that copy. A load racing a bump simply
// observes the previous value: the detector then reuses a one-round-
// stale (but internally consistent) copy, which validate-then-act
// already tolerates, and the next activation sees the bump and
// recopies. The counter never wraps in practice (2^64 mutex rounds).
//
// hwlint:atomics-only — the counter may only be touched via its
// methods.
type shardEpoch struct {
	v atomic.Uint64
}

// bump advances the epoch; the caller holds the owning shard's mutex.
func (e *shardEpoch) bump() { e.v.Add(1) }

// load reads the epoch; callers need no lock (see shardEpoch).
func (e *shardEpoch) load() uint64 { return e.v.Load() }

// fcSlots sizes each shard's flat-combining publication array. Eight
// slots cover the realistic burst of simultaneously contending
// requesters per shard; when all are taken the requester simply falls
// back to queueing on the mutex, so the size is a throughput knob, not
// a correctness bound.
const fcSlots = 8

// fcRequest is one published lock request. The record is owned by the
// requesting transaction (inlined in Txn, so publication allocates
// nothing) and handed to the combiner by pointer; the combiner writes
// the outcome into res/err and then publishes those writes with the
// atomic done store, which the spinning requester's done load
// synchronizes with.
type fcRequest struct {
	txn  TxnID
	rid  ResourceID
	mode Mode
	ch   chan struct{} // waiter channel the combiner registers if the request blocks

	res  table.RequestResult
	err  error
	done atomic.Uint32
}

// prepare readies the record for a new publication.
func (f *fcRequest) prepare(txn TxnID, rid ResourceID, mode Mode, ch chan struct{}) {
	f.txn = txn
	f.rid = rid
	f.mode = mode
	f.ch = ch
	f.res = table.RequestResult{}
	f.err = nil
	f.done.Store(0)
}

// drainPending applies every currently published request. Called with
// mu held by whichever goroutine is about to release it on a hot-path
// exit (or by a spinning publisher that found the mutex free and became
// the combiner). Results travel back through the request record: plain
// writes first, then the done flag's atomic store makes them visible to
// the spinning owner. All observer work for the drained requests —
// histogram observations, journal records, tracer hooks — happens on
// the owner's side after it sees done, so nothing here blocks or calls
// out while the shard is locked.
func (s *shard) drainPending() {
	for i := range s.fc {
		req := s.fc[i].Load()
		if req == nil {
			continue
		}
		s.fc[i].Store(nil)
		s.applyPublished(req)
	}
}

// applyPublished runs one published request through the table,
// maintaining the same counters the direct path maintains and
// registering the waiter channel when the request blocks — so a
// combined request is indistinguishable, table- and detector-wise, from
// one issued under the requester's own mutex round. Called with mu
// held.
//
// The one budgeted site is the table's Resource first-touch literal.
//
//hwlint:hotpath allocs=1
func (s *shard) applyPublished(req *fcRequest) {
	res, err := s.tb.RequestEx(req.txn, req.rid, req.mode)
	met := s.met
	met.flatCombined.Inc()
	if err == nil {
		s.epoch.bump()
		if res.Conversion {
			met.conversions.Inc()
		} else {
			met.fresh.Inc()
		}
		if res.Granted {
			met.grants.Inc()
			met.grantsByMode[req.mode].Inc()
			met.immediate.Inc()
		} else {
			met.blocked.Inc()
			s.waiters[req.txn] = req.ch
		}
	}
	req.res = res
	req.err = err
	req.done.Store(1)
}

// waiterPool recycles waiter channels across blocking Lock calls. A
// waiter channel is a one-token signal (capacity 1), not a closed-once
// broadcast, precisely so it can be reused: the waiter drains any stale
// token before returning its channel to the pool.
var waiterPool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// getWaiter hands out a recycled (empty) waiter channel.
func getWaiter() chan struct{} { return waiterPool.Get().(chan struct{}) }

// putWaiter returns a waiter channel to the pool, draining a token a
// waker may have sent after the waiter stopped listening. The caller
// must already have removed the channel from the shard's waiter map
// under the shard mutex — tokens are only ever sent under that mutex to
// channels still in the map, so after removal no further token can
// arrive and the drained channel is safe to reuse.
func putWaiter(ch chan struct{}) {
	select {
	case <-ch:
	default:
	}
	waiterPool.Put(ch)
}

// wake signals one waiter, if present, and unregisters it (the waiter
// re-registers its channel if it decides to keep waiting). Called with
// mu held. The send cannot block: a registered channel is always empty,
// because a waker removes the channel when it deposits a token and the
// waiter consumes the token before re-registering.
func (s *shard) wake(id TxnID) {
	if ch, ok := s.waiters[id]; ok {
		select {
		case ch <- struct{}{}:
		default:
		}
		delete(s.waiters, id)
	}
}

// wakeAll signals every waiter to re-check its state. Called with mu
// held.
func (s *shard) wakeAll() {
	for id, ch := range s.waiters {
		select {
		case ch <- struct{}{}:
		default:
		}
		delete(s.waiters, id)
	}
}

// wakeGrants wakes the transaction behind every grant and counts the
// grants served. Called with mu held.
func (s *shard) wakeGrants(grants []table.Grant) {
	for _, g := range grants {
		s.wake(g.Txn)
	}
	s.countGrants(grants)
}

// countGrants counts hand-off grants into the shard's metric block,
// per mode (the effective post-conversion mode the table reports). The
// counters are atomic, so both mutex-holding callers (commit/abort
// hand-off) and the stopped-world detector may call this.
func (s *shard) countGrants(grants []table.Grant) {
	for _, g := range grants {
		s.met.grants.Inc()
		if int(g.Mode) < len(s.met.grantsByMode) {
			s.met.grantsByMode[g.Mode].Inc()
		}
	}
}

// shardIndex maps a resource id to a shard index: FNV-1a over the id,
// masked to the power-of-two shard count.
func shardIndex(r table.ResourceID, mask uint32) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(r); i++ {
		h ^= uint32(r[i])
		h *= 16777619
	}
	h ^= h >> 16
	return h & mask
}

// shardFor maps a resource id to its owning shard.
func (m *Manager) shardFor(r ResourceID) *shard {
	return m.shards[shardIndex(r, m.mask)]
}

// stopTheWorld acquires every shard mutex in index order, freezing the
// whole lock table. This is the sharded facade's one global
// synchronization point: the periodic detector (and the consistent-
// snapshot diagnostics) run inside it, which is exactly the trade the
// paper's periodic model makes — the hot grant/release path never needs
// a globally consistent graph, only the detector does, once per period.
// Two goroutines stopping the world serialize on shard 0's mutex, so
// the in-order acquisition cannot deadlock.
func (m *Manager) stopTheWorld() {
	for _, s := range m.shards {
		s.mu.Lock()
	}
}

// resumeTheWorld releases the shard mutexes in reverse order.
func (m *Manager) resumeTheWorld() {
	for i := len(m.shards) - 1; i >= 0; i-- {
		m.shards[i].mu.Unlock()
	}
}

// lockShards acquires the shard mutexes at the given indices, which
// must be sorted ascending and deduplicated. This is the stopTheWorld
// discipline restricted to a subset — every multi-shard locker in the
// manager acquires in ascending index order, so subsets, full stops and
// single-shard operations can never deadlock against each other. The
// snapshot detector's validate-then-act phase uses it to pin only the
// shards a cycle actually touches.
//
//hwlint:allow lockorder -- idx is sorted ascending and deduplicated by every caller (cycleShards); the sortedness is this function's documented precondition
func (m *Manager) lockShards(idx []uint32) {
	for _, i := range idx {
		m.shards[i].mu.Lock()
	}
}

// unlockShards releases the mutexes taken by lockShards, in reverse.
func (m *Manager) unlockShards(idx []uint32) {
	for i := len(idx) - 1; i >= 0; i-- {
		m.shards[idx[i]].mu.Unlock()
	}
}

// multiTable presents S sharded lock tables to twbg.Build (and to the
// diagnostic renderers) as one merged table. Every method accesses the
// shard tables WITHOUT locking: a multiTable may only be used by a
// goroutine that has stopped the world, which is what makes the
// lock-free access — and the globally consistent view — safe.
type multiTable struct {
	shards  []*shard
	scratch []*table.Resource // merged, id-sorted resource list, reused across calls
}

// EachResource iterates every locked resource across all shards in
// global id order — the order the detector's Step 1 wiring and victim
// choices are defined over, so a merged view of the shards builds the
// same graph a single table holding the same state would.
func (mt *multiTable) EachResource(f func(*table.Resource) bool) {
	mt.scratch = mt.scratch[:0]
	for _, s := range mt.shards {
		s.tb.EachResource(func(r *table.Resource) bool {
			mt.scratch = append(mt.scratch, r)
			return true
		})
	}
	sort.Slice(mt.scratch, func(i, j int) bool { return mt.scratch[i].ID() < mt.scratch[j].ID() })
	for _, r := range mt.scratch {
		if !f(r) {
			return
		}
	}
}

// String renders the merged table in the paper's notation, one resource
// per line in id order.
func (mt *multiTable) String() string {
	out := ""
	mt.EachResource(func(r *table.Resource) bool {
		if r.NumHolders() == 0 && r.QueueLen() == 0 {
			return true
		}
		out += r.String() + "\n"
		return true
	})
	return out
}
