// Lockd serves the hwtwbg lock manager over TCP using the lockservice
// protocol: BEGIN / LOCK / TRYLOCK / COMMIT / ABORT / STATS / SNAPSHOT,
// with a background H/W-TWBG deadlock detector (-period sets how often
// it runs, -scheduling costmodel lets the journal-fed cost model tune
// that). Try it with netcat:
//
//	lockd -addr :7654 &
//	printf 'BEGIN\nLOCK accounts/7 X\nCOMMIT\nQUIT\n' | nc localhost 7654
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hwtwbg"
	"hwtwbg/journal"
	"hwtwbg/lockservice"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "listen address")
	debugAddr := flag.String("debug-addr", "", "debug HTTP listen address serving /metrics, /snapshot, /twbg.dot and /debug/pprof (empty = disabled)")
	period := flag.Duration("period", 20*time.Millisecond, "deadlock detection period")
	noTDR2 := flag.Bool("no-tdr2", false, "resolve deadlocks by abort only (disable TDR-2)")
	shards := flag.Int("shards", 0, "lock-table shards, rounded up to a power of two (0 = derive from GOMAXPROCS)")
	scheduling := flag.String("scheduling", "", "detection scheduling policy: fixed or costmodel (journal-fed cost model derives the cost-minimizing period); empty = fixed")
	maxPeriod := flag.Duration("max-period", 0, "cap for the costmodel period (0 = 8x period)")
	journalSize := flag.Int("journal", 0, "flight-recorder capacity in records per ring (0 = default 4096, negative = disabled)")
	traceOut := flag.String("trace-out", "", "on shutdown, write the flight recorder as Chrome trace-event/Perfetto JSON to this file (requires the journal)")
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockd: %v\n", err)
		os.Exit(1)
	}
	switch *scheduling {
	case "", hwtwbg.SchedulingFixed, hwtwbg.SchedulingCostModel:
	default:
		fmt.Fprintf(os.Stderr, "lockd: unknown -scheduling %q (want fixed or costmodel)\n", *scheduling)
		os.Exit(2)
	}
	srv := lockservice.Serve(ln, hwtwbg.Options{
		Period:      *period,
		Scheduling:  *scheduling,
		MaxPeriod:   *maxPeriod,
		Shards:      *shards,
		DisableTDR2: *noTDR2,
		JournalSize: *journalSize,
		OnVictim: func(id hwtwbg.TxnID) {
			fmt.Printf("lockd: aborted %v to break a deadlock\n", id)
		},
	})
	sched := *scheduling
	if sched == "" {
		sched = hwtwbg.SchedulingFixed
	}
	fmt.Printf("lockd: serving on %s (detection every %v, %s scheduling, %d shards)\n",
		srv.Addr(), *period, sched, srv.Manager().NumShards())

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lockd: debug listener: %v\n", err)
			srv.Close()
			os.Exit(1)
		}
		srv.Manager().PublishExpvar("hwtwbg")
		go http.Serve(dln, lockservice.DebugHandler(srv.Manager()))
		fmt.Printf("lockd: debug server on http://%s (/metrics, /snapshot, /twbg.dot, /debug/pprof)\n",
			dln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("lockd: shutting down")
	if *traceOut != "" {
		// Snapshot before Close so the trace does not end in the burst of
		// shutdown aborts.
		if jr := srv.Manager().Journal(); jr != nil {
			if err := writeTrace(*traceOut, jr.Snapshot()); err != nil {
				fmt.Fprintf(os.Stderr, "lockd: trace-out: %v\n", err)
			} else {
				fmt.Printf("lockd: wrote trace to %s (load into ui.perfetto.dev)\n", *traceOut)
			}
		} else {
			fmt.Fprintln(os.Stderr, "lockd: trace-out: journal disabled")
		}
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "lockd: close: %v\n", err)
	}
}

// writeTrace dumps records to path in Chrome trace-event JSON.
func writeTrace(path string, recs []journal.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := journal.WriteTrace(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
