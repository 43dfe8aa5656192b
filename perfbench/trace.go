package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"time"
)

// spanName names a layer boundary the benchmark times: one public call
// into the manager, the lock table, kv or the wire client, or a whole
// transaction.
type spanName uint8

const (
	spTxn spanName = iota
	spMgrBegin
	spMgrLock
	spMgrLockAll
	spMgrCommit
	spTableRequest
	spTableRelease
	spKVUpdate
	spKVAttempt
	spKVGet
	spKVPut
	spKVCommit
	spWireBegin
	spWireLock
	spWireLockAll
	spWireCommit
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spTxn:          "txn",
	spMgrBegin:     "manager.begin",
	spMgrLock:      "manager.lock",
	spMgrLockAll:   "manager.lockall",
	spMgrCommit:    "manager.commit",
	spTableRequest: "table.request",
	spTableRelease: "table.release",
	spKVUpdate:     "kv.update",
	spKVAttempt:    "kv.attempt",
	spKVGet:        "kv.get",
	spKVPut:        "kv.put",
	spKVCommit:     "kv.commit",
	spWireBegin:    "wire.begin",
	spWireLock:     "wire.lock",
	spWireLockAll:  "wire.lockall",
	spWireCommit:   "wire.commit",
}

// span is one timed call. Times are nanoseconds since the tracer's
// epoch; parent indexes the same tracer's buffer (-1 for a root).
type span struct {
	start, end int64
	txn        uint64
	parent     int32
	name       spanName
}

// txnReserve is the free room a tracer needs to start a transaction's
// root span, so a transaction is never cut off mid-way: the deepest
// transaction the workloads run (a kv update retried a few times) needs
// well under this many spans.
const txnReserve = 64

// tracer records one client's spans into a buffer allocated up front;
// it never grows, so recording costs two clock reads and a store. A nil
// tracer records nothing, which is how untraced runs skip tracing.
type tracer struct {
	epoch time.Time
	spans []span
	full  bool // the buffer ran out of room; the traced phase is over
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root opens a transaction's root span, or returns -1 (and marks the
// tracer full) when fewer than txnReserve slots are left.
func (t *tracer) root(name spanName, txn uint64) int32 {
	if t == nil {
		return -1
	}
	if cap(t.spans)-len(t.spans) < txnReserve {
		t.full = true
		return -1
	}
	t.spans = append(t.spans, span{start: t.now(), txn: txn, parent: -1, name: name})
	return int32(len(t.spans) - 1)
}

// begin opens a child span of parent; it records nothing when the
// transaction has no root span.
func (t *tracer) begin(name spanName, txn uint64, parent int32) int32 {
	if t == nil || parent < 0 || len(t.spans) == cap(t.spans) {
		return -1
	}
	t.spans = append(t.spans, span{start: t.now(), txn: txn, parent: parent, name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil && i >= 0 {
		t.spans[i].end = t.now()
	}
}

// endOf returns the end time of span i (0 when it was not recorded).
func (t *tracer) endOf(i int32) int64 {
	if t == nil || i < 0 {
		return 0
	}
	return t.spans[i].end
}

// record adds a span whose times were taken elsewhere: kv's commit,
// which runs inside Store.Update, is the interval from the last
// attempt's return to Update's return.
func (t *tracer) record(name spanName, txn uint64, parent int32, start, end int64) {
	if t == nil || parent < 0 || len(t.spans) == cap(t.spans) {
		return
	}
	t.spans = append(t.spans, span{start: start, end: end, txn: txn, parent: parent, name: name})
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once, and a child sticking out of its parent counts only inside it).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	var kids []int32
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	slices.SortFunc(kids, func(a, b int32) int {
		sa, sb := spans[a], spans[b]
		if sa.parent != sb.parent {
			return int(sa.parent - sb.parent)
		}
		switch {
		case sa.start < sb.start:
			return -1
		case sa.start > sb.start:
			return 1
		}
		return 0
	})
	for i := 0; i < len(kids); {
		p := spans[kids[i]].parent
		lo, hi := spans[p].start, spans[p].end
		covered, curS, curE := int64(0), int64(0), int64(-1)
		for ; i < len(kids) && spans[kids[i]].parent == p; i++ {
			s, e := max(spans[kids[i]].start, lo), min(spans[kids[i]].end, hi)
			if e <= s {
				continue
			}
			if s > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = s, e
			} else if e > curE {
				curE = e
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		self[p] -= covered
	}
	return self
}

// spanStats gathers self times per span name across tracers.
type spanStats [numSpanNames][]uint32

func collectSpans(tracers []*tracer) *spanStats {
	var st spanStats
	for _, t := range tracers {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			st[s.name] = append(st[s.name], clampNs(self[i]))
		}
	}
	return &st
}

// writeChromeTrace renders tracers as Chrome trace-event JSON (complete
// "X" events, microsecond times): one process per group, one thread per
// client. Every event carries its transaction id, its own id and its
// parent's id within the thread.
func writeChromeTrace(w io.Writer, groups map[string][]*tracer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	slices.Sort(names)
	for pid, g := range names {
		if pid > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":%q}}`, pid, g)
		for tid, t := range groups[g] {
			for i, s := range t.spans {
				fmt.Fprintf(bw, `,{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"txn":%d,"id":%d,"parent":%d}}`,
					spanNames[s.name], pid, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.txn, i, s.parent)
			}
		}
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}
