package lockservice

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hwtwbg"
)

// replyHeads are the words a reply line may start with.
var replyHeads = []string{"OK", "ERR", "ABORTED", "BUSY", "PONG", "BYE"}

// FuzzDispatch drives one session with arbitrary request lines, split
// and trimmed the way Server.handle does, and checks after every line
// that dispatch did not panic, that the reply is one protocol reply, and
// that the session's transaction agrees with what the reply told the
// client. The manager runs no detector and the session is alone, so no
// request can block or be aborted from outside.
func FuzzDispatch(f *testing.F) {
	for _, seed := range []string{
		"PING\nBEGIN\nLOCK a S\nLOCK b X\nSNAPSHOT\nCOMMIT\nQUIT",
		"BEGIN tag=7\nLOCKALL a S b X c IX tag=7\nCOMMIT NEXT\nLOCK c X tag=7\nABORT NEXT\nBEGIN",
		"BEGIN\nTRYLOCK r X\nTRYLOCK r S tag=1\nCOMMIT NEXT\nCOMMIT\nCOMMIT",
		"COMMIT\nLOCK r S\nABORT\nABORT NEXT\nBEGIN\nABORT",
		"BEGIN\nBEGIN\nLOCK r Q\nLOCK r\nLOCKALL r\nLOCKALL r S s\nFROB\nBEGIN tag=x",
		"commit foo\nABORT FOO\nCOMMIT NEXT NEXT\nabort next\nSTATS\nDUMP",
		"TAIL max=1\nBEGIN\nLOCK r SIX\nLOCK r X\nCOMMIT next\nLOCKALL r IS r X\nSNAPSHOT",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		lm := hwtwbg.Open(hwtwbg.Options{Shards: 2, JournalSize: 64})
		defer lm.Close()
		// A request that blocks here is a self-deadlock; the deadline
		// turns it into an ERR reply the checks reject instead of a hang.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sess := &session{srv: &Server{lm: lm}, ctx: ctx}
		defer func() {
			if sess.txn != nil {
				sess.txn.Abort()
			}
		}()
		for _, line := range strings.Split(input, "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			cmd := strings.ToUpper(strings.Fields(line)[0])
			if cmd == "TAIL" {
				continue // handle streams TAIL itself
			}
			before := sess.txn
			var beforeID hwtwbg.TxnID
			if before != nil {
				beforeID = before.ID()
			}
			resp, quit := sess.dispatch(line)
			checkReply(t, line, cmd, resp)
			checkSession(t, lm, sess, line, cmd, resp, before, beforeID)
			if quit {
				return
			}
		}
	})
}

// checkReply checks that resp is one protocol reply: a line starting
// with a reply word, followed — for SNAPSHOT and DUMP alone — by
// exactly the number of body lines its "OK <n>" header announces.
func checkReply(t *testing.T, line, cmd, resp string) {
	t.Helper()
	head, body, multi := strings.Cut(resp, "\n")
	word, _, _ := strings.Cut(head, " ")
	if !slices.Contains(replyHeads, word) {
		t.Fatalf("%q -> reply %q starts with no reply word", line, head)
	}
	if strings.Contains(head, "context deadline exceeded") {
		t.Fatalf("%q blocked a lone session: %q", line, head)
	}
	if !multi {
		return
	}
	n, err := strconv.Atoi(strings.TrimPrefix(head, "OK "))
	if (cmd != "SNAPSHOT" && cmd != "DUMP") || err != nil || n != strings.Count(body, "\n")+1 {
		t.Fatalf("%q -> multi-line reply %q", line, resp)
	}
}

// checkSession checks the session's transaction against the reply: an
// "OK <id>" to BEGIN, COMMIT or ABORT names the live transaction; any
// other well-formed COMMIT or ABORT leaves none; every other request
// keeps the transaction it found, live after an OK or BUSY lock reply.
// A session with no live transaction holds no locks.
func checkSession(t *testing.T, lm *hwtwbg.Manager, sess *session, line, cmd, resp string, before *hwtwbg.Txn, beforeID hwtwbg.TxnID) {
	t.Helper()
	tx := sess.txn
	finish := cmd == "COMMIT" || cmd == "ABORT"
	switch {
	case (cmd == "BEGIN" || finish) && strings.HasPrefix(resp, "OK "):
		if tx == nil || tx.Err() != nil || resp != "OK "+strconv.Itoa(int(tx.ID())) {
			t.Fatalf("%q -> %q but the session's transaction is %v", line, resp, tx)
		}
	case finish && !strings.HasPrefix(resp, "ERR usage"):
		if tx != nil {
			t.Fatalf("%q -> %q left transaction T%d", line, resp, tx.ID())
		}
	default:
		if tx != before || (tx != nil && tx.ID() != beforeID) {
			t.Fatalf("%q -> %q replaced the session's transaction", line, resp)
		}
		lockVerb := cmd == "LOCK" || cmd == "LOCKALL" || cmd == "TRYLOCK"
		if lockVerb && (resp == "OK" || resp == "BUSY") && (tx == nil || tx.Err() != nil) {
			t.Fatalf("%q -> %q without a live transaction", line, resp)
		}
	}
	if tx == nil || tx.Err() != nil {
		if snap := lm.Snapshot(); snap != "" {
			t.Fatalf("%q -> %q: no live transaction, yet the table holds\n%s", line, resp, snap)
		}
	}
}
