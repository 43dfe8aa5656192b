package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 30, parent: 0},    // 1: child of 0
		{start: 20, end: 50, parent: 0},    // 2: overlaps 1; 1∪2 = [10,50)
		{start: 90, end: 120, parent: 0},   // 3: sticks out of 0; counts [90,100)
		{start: 25, end: 28, parent: 2},    // 4: grandchild, only 2 loses it
		{start: 200, end: 260, parent: -1}, // 5: a second root, no children
	}
	want := []int64{100 - 40 - 10, 20, 30 - 3, 30, 3, 60}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerReserveAndNil(t *testing.T) {
	var nilT *tracer
	if r := nilT.root(spTxn, 1); r != -1 || nilT.begin(spMgrLock, 1, 0) != -1 {
		t.Fatal("nil tracer recorded a span")
	}
	nilT.end(0)
	nilT.record(spKVCommit, 1, 0, 1, 2)

	tr := newTracer(time.Now(), txnReserve+1)
	root := tr.root(spTxn, 7)
	child := tr.begin(spMgrLock, 7, root)
	tr.end(child)
	tr.end(root)
	if root != 0 || child != 1 || tr.full {
		t.Fatalf("root %d child %d full %v; want 0 1 false", root, child, tr.full)
	}
	if s := tr.spans[1]; s.parent != 0 || s.txn != 7 || s.end < s.start {
		t.Errorf("child span = %+v", s)
	}
	// Fewer than txnReserve slots remain: no new transaction starts.
	if r := tr.root(spTxn, 8); r != -1 || !tr.full {
		t.Errorf("root with %d free slots = %d, full %v; want -1, true", cap(tr.spans)-len(tr.spans), r, tr.full)
	}
	if tr.begin(spMgrLock, 8, -1) != -1 {
		t.Error("child of an unrecorded root was recorded")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	tr := newTracer(time.Now(), 100)
	root := tr.root(spKVUpdate, 3)
	att := tr.begin(spKVAttempt, 3, root)
	tr.end(att)
	tr.end(root)
	tr.record(spKVCommit, 3, root, tr.endOf(att), tr.endOf(root))
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, map[string][]*tracer{"w": {tr}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 4 || doc.TraceEvents[3].Name != "kv.commit" || doc.TraceEvents[3].Args["parent"] != 0.0 {
		t.Errorf("events = %+v", doc.TraceEvents)
	}
}
