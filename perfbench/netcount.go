package main

import (
	"net"
	"sync/atomic"
)

// ioCounts tallies Read and Write calls on connections and the bytes
// they moved. Each call on a net.Conn is at least one read or write
// system call, so the call counts are the syscall counts the wire layer
// would have to lower (a call that parks in the netpoller and retries
// is still one call).
type ioCounts struct {
	reads, writes, bytesRead, bytesWritten atomic.Int64
}

// ioTotals is a plain copy of ioCounts at one instant.
type ioTotals struct {
	reads, writes, bytesRead, bytesWritten int64
}

func (c *ioCounts) load() ioTotals {
	return ioTotals{c.reads.Load(), c.writes.Load(), c.bytesRead.Load(), c.bytesWritten.Load()}
}

func (t ioTotals) sub(o ioTotals) ioTotals {
	return ioTotals{t.reads - o.reads, t.writes - o.writes, t.bytesRead - o.bytesRead, t.bytesWritten - o.bytesWritten}
}

func (t ioTotals) calls() int64 { return t.reads + t.writes }
func (t ioTotals) bytes() int64 { return t.bytesRead + t.bytesWritten }

// countingConn counts every Read and Write on the connection it wraps.
type countingConn struct {
	net.Conn
	n *ioCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.reads.Add(1)
	c.n.bytesRead.Add(int64(n))
	return n, err
}

// Write counts before it writes, so a peer that has read the bytes
// also sees them counted: a count taken once the peer has its reply is
// exact, with no write still in flight.
func (c *countingConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	c.n.bytesWritten.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	if n < len(p) {
		c.n.bytesWritten.Add(int64(n - len(p)))
	}
	return n, err
}

// countingListener wraps every accepted connection in a countingConn
// sharing one ioCounts, so a server handed this listener reports its
// whole side of the wire.
type countingListener struct {
	net.Listener
	n *ioCounts
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}
