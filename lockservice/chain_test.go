package lockservice

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hwtwbg"
	"hwtwbg/journal"
)

// expect sends one raw request and checks the reply line.
func expect(t *testing.T, c *Client, req, want string) {
	t.Helper()
	resp, err := c.roundTrip(req)
	if err != nil {
		t.Fatalf("%s: %v", req, err)
	}
	if resp != want {
		t.Fatalf("%s -> %q, want %q", req, resp, want)
	}
}

// expectPrefix is expect for replies carrying an id or a message.
func expectPrefix(t *testing.T, c *Client, req, prefix string) string {
	t.Helper()
	resp, err := c.roundTrip(req)
	if err != nil {
		t.Fatalf("%s: %v", req, err)
	}
	if !strings.HasPrefix(resp, prefix) {
		t.Fatalf("%s -> %q, want prefix %q", req, resp, prefix)
	}
	return resp
}

// TestChainOldServerFallsBackToBegin: a server that predates chaining
// ignores NEXT and answers a bare OK, so the next Begin must do a real
// BEGIN round trip and return that reply's id.
func TestChainOldServerFallsBackToBegin(t *testing.T) {
	c, reqs := scriptedServer(t, "OK 7", "OK", "OK 8")
	if id, err := c.Begin(); err != nil || id != 7 {
		t.Fatalf("Begin = %v, %v; want 7", id, err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	id, err := c.Begin()
	if err != nil || id != 8 {
		t.Fatalf("Begin after a bare OK = %v, %v; want 8 from a BEGIN round trip", id, err)
	}
	for _, want := range []string{"BEGIN", "COMMIT NEXT", "BEGIN"} {
		if got := <-reqs; got != want {
			t.Fatalf("request %q, want %q", got, want)
		}
	}
}

// TestChainMalformedReply: an OK whose id does not parse is a malformed
// reply, and leaves nothing for Begin to hand out.
func TestChainMalformedReply(t *testing.T) {
	c, _ := scriptedServer(t, "OK x", "OK 9")
	if err := c.Commit(); err == nil || !strings.Contains(err.Error(), "malformed COMMIT NEXT reply") {
		t.Fatalf("Commit error = %v", err)
	}
	if id, err := c.Begin(); err != nil || id != 9 {
		t.Fatalf("Begin = %v, %v; want 9 from a BEGIN round trip", id, err)
	}
}

// TestChainProtocol checks the server's COMMIT/ABORT [NEXT] semantics
// with raw requests.
func TestChainProtocol(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	// Plain COMMIT keeps today's reply and leaves no transaction.
	expectPrefix(t, c, "BEGIN", "OK ")
	expect(t, c, "COMMIT", "OK")
	expect(t, c, "LOCK r X", "ERR no transaction; BEGIN first")
	expect(t, c, "ABORT", "OK")
	expect(t, c, "LOCK r X", "ERR no transaction; BEGIN first")

	// COMMIT NEXT begins the next transaction: it is live, so a BEGIN
	// is refused and a LOCK runs in it.
	expectPrefix(t, c, "BEGIN", "OK ")
	first := expectPrefix(t, c, "COMMIT NEXT", "OK ")
	expect(t, c, "BEGIN", "ERR transaction already active; COMMIT or ABORT first")
	expect(t, c, "LOCK r X", "OK")
	second := expectPrefix(t, c, "commit next", "OK ") // verbs are case-insensitive
	if first == second {
		t.Fatalf("two chained commits both replied %q", first)
	}
	// ABORT NEXT chains too, with or without a live transaction.
	expectPrefix(t, c, "ABORT NEXT", "OK ")
	expect(t, c, "ABORT", "OK")
	expectPrefix(t, c, "ABORT NEXT", "OK ")

	// Stray arguments are usage errors and change nothing.
	expect(t, c, "COMMIT FOO", "ERR usage: COMMIT [NEXT]")
	expect(t, c, "COMMIT NEXT NEXT", "ERR usage: COMMIT [NEXT]")
	expect(t, c, "ABORT tag=3", "ERR usage: ABORT [NEXT]")
	expect(t, c, "BEGIN", "ERR transaction already active; COMMIT or ABORT first")
	expect(t, c, "ABORT", "OK")
	expect(t, c, "COMMIT NEXT", "ERR no transaction")
	expect(t, c, "LOCK r X", "ERR no transaction; BEGIN first")
}

// TestChainAbortedCommitDoesNotChain: a deadlock victim's COMMIT NEXT
// replies ABORTED and begins nothing, on either side of the wire.
func TestChainAbortedCommitDoesNotChain(t *testing.T) {
	_, addr := startServer(t)
	a, b := dial(t, addr), dial(t, addr)
	for _, step := range []struct {
		c   *Client
		res string
	}{{a, "x"}, {b, "y"}} {
		if _, err := step.c.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := step.c.Lock(step.res, hwtwbg.X); err != nil {
			t.Fatal(err)
		}
	}
	errA, errB := make(chan error, 1), make(chan error, 1)
	go func() { errA <- a.Lock("y", hwtwbg.X) }()
	go func() { errB <- b.Lock("x", hwtwbg.X) }()
	var ea, eb error
	for _, ch := range []chan error{errA, errB} {
		select {
		case err := <-ch:
			if ch == errA {
				ea = err
			} else {
				eb = err
			}
		case <-time.After(5 * time.Second):
			t.Fatal("deadlock never resolved")
		}
	}
	victim, survivor := a, b
	if errors.Is(eb, ErrAborted) {
		victim, survivor, ea, eb = b, a, eb, ea
	}
	if !errors.Is(ea, ErrAborted) || eb != nil {
		t.Fatalf("LOCK outcomes %v and %v, want one ErrAborted and one grant", ea, eb)
	}
	if err := victim.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("victim Commit = %v, want ErrAborted", err)
	}
	if victim.next != 0 {
		t.Fatalf("client kept chained id %d after a failed commit", victim.next)
	}
	expect(t, victim, "LOCK z S", "ERR no transaction; BEGIN first")
	// The survivor chains normally.
	if err := survivor.Commit(); err != nil || survivor.next == 0 {
		t.Fatalf("survivor Commit = %v, chained id %d", err, survivor.next)
	}
}

// TestChainIDsMatchJournal: the id Begin returns without I/O is the
// transaction the server journals the following locks under.
func TestChainIDsMatchJournal(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	ids := map[string]hwtwbg.TxnID{}
	for i := 0; i < 4; i++ {
		id, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		res := fmt.Sprintf("chain/%d", i)
		ids[res] = id
		if err := c.LockAll([]hwtwbg.LockRequest{{Resource: hwtwbg.ResourceID(res), Mode: hwtwbg.X}}); err != nil {
			t.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := c.DumpJournal()
	if err != nil {
		t.Fatal(err)
	}
	grants := 0
	for i := range recs {
		r := &recs[i]
		id, ok := ids[r.Resource()]
		if r.Kind != journal.KindGrant || !ok {
			continue
		}
		grants++
		if r.Txn != int64(id) {
			t.Errorf("grant of %s journaled under T%d, Begin returned T%d", r.Resource(), r.Txn, id)
		}
	}
	if grants != len(ids) {
		t.Fatalf("%d grant records, want %d", grants, len(ids))
	}
	if m := c.Metrics(); len(m.Verbs) == 0 || m.Verbs[0].Verb != "BEGIN" || m.Verbs[0].Calls != 4 {
		t.Fatalf("client metrics %+v, want 4 BEGIN calls", m.Verbs)
	}
}

// TestChainCloseLeavesNothing: a connection that closes while its
// chained transaction is open leaves an empty lock table and no journal
// record for that transaction.
func TestChainCloseLeavesNothing(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock("held", hwtwbg.X); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	chained := c.next
	if chained == 0 {
		t.Fatal("commit against a current server did not chain")
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never finished the closed session")
		}
		time.Sleep(time.Millisecond)
	}
	if snap := srv.Manager().Snapshot(); snap != "" {
		t.Fatalf("lock table after close:\n%s", snap)
	}
	recs := srv.Manager().Journal().Snapshot()
	for i := range recs {
		if recs[i].Txn == int64(chained) {
			t.Errorf("journal record %v for the unused chained T%d", recs[i].Kind, chained)
		}
	}
	if rep := journal.Analyze(recs); rep.Orphans != 0 {
		t.Fatalf("Analyze orphans = %d, want 0", rep.Orphans)
	}
}

// countConn counts the writes on the connection it wraps; each is one
// request sent, so it counts round trips.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestChainRoundTrips: a steady-state Begin/LockAll/Commit transaction
// costs exactly two requests on the wire.
func TestChainRoundTrips(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countConn{Conn: conn}
	c := NewClient(cc)
	t.Cleanup(func() { c.Close() })
	reqs := []hwtwbg.LockRequest{{Resource: "a", Mode: hwtwbg.S}, {Resource: "b", Mode: hwtwbg.X}}
	txn := func() {
		t.Helper()
		if _, err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := c.LockAll(reqs); err != nil {
			t.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	txn() // the first transaction pays for its BEGIN
	const n = 50
	w0 := cc.writes.Load()
	for i := 0; i < n; i++ {
		txn()
	}
	if got := cc.writes.Load() - w0; got != 2*n {
		t.Fatalf("%d writes for %d transactions, want exactly %d", got, n, 2*n)
	}
}
