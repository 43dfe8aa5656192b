package main

import (
	"bufio"
	"net"
	"testing"
)

// TestCountingConnAndListener runs three request/reply exchanges over
// loopback and checks that both sides count exactly one write and one
// read per message, with the bytes moved.
func TestCountingConnAndListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var srv, cli ioCounts
	cl := &countingListener{Listener: ln, n: &srv}
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		c, err := cl.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		r := bufio.NewReader(c)
		for i := 0; i < 3; i++ {
			line, err := r.ReadString('\n')
			if err != nil {
				done <- err
				return
			}
			if _, err := c.Write([]byte("OK " + line)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := &countingConn{Conn: raw, n: &cli}
	defer conn.Close()
	r := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		if _, err := conn.Write([]byte("PING\n")); err != nil {
			t.Fatal(err)
		}
		if line, err := r.ReadString('\n'); err != nil || line != "OK PING\n" {
			t.Fatalf("reply %q, %v", line, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	want := ioTotals{reads: 3, writes: 3, bytesRead: 3 * 8, bytesWritten: 3 * 5}
	if got := cli.load(); got != want {
		t.Errorf("client counts %+v, want %+v", got, want)
	}
	// The server's reads: three requests; the fourth read never ran.
	want = ioTotals{reads: 3, writes: 3, bytesRead: 3 * 5, bytesWritten: 3 * 8}
	if got := srv.load(); got != want {
		t.Errorf("server counts %+v, want %+v", got, want)
	}
	if d := cli.load().sub(ioTotals{reads: 1, writes: 1}); d.calls() != 4 || d.bytes() != 39 {
		t.Errorf("sub/calls/bytes = %+v", d)
	}
}
