package collect

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

// countedConn counts the Read and Write calls made on a connection —
// on a TCP socket, the syscalls.
type countedConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func smallSnapshot(rank int) *core.Snapshot {
	table := cst.New()
	g := sequitur.New()
	for i := 0; i < 12; i++ {
		g.Append(table.Add([]byte{'s', 'i', 'g', byte('a' + i%3)}, int64(3+i)))
	}
	return &core.Snapshot{Rank: rank, Calls: 12, IntraNs: 999, Table: table, Grammar: sequitur.Serialized(g.Serialize())}
}

// TestOneWriteOneReadPerExchange counts the socket calls on both ends
// of a held connection: an acked snapshot is one write and one read on
// the producer and one read and one write on the collector (it was
// nine writes and three), and the bare hello Close flushes the clock
// sample with is one more write.
func TestOneWriteOneReadPerExchange(t *testing.T) {
	const n = 32
	srv, err := Start(Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The server end of the connection is handed to serveConn wrapped, as
	// acceptLoop would hand it over bare.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var cli, ser *countedConn
	c := &Client{Run: RunInfo{RunID: "counted", WorldSize: n + 1}, Dial: func(string) (net.Conn, error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		accepted, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		cli, ser = &countedConn{Conn: conn}, &countedConn{Conn: accepted}
		srv.mu.Lock()
		srv.conns[ser] = struct{}{}
		srv.mu.Unlock()
		srv.m.ActiveConns.Add(1)
		srv.wg.Add(1)
		go srv.serveConn(ser)
		return cli, nil
	}}
	if err := c.SendSnapshot(smallSnapshot(n)); err != nil { // dial and warm up
		t.Fatal(err)
	}
	cw, cr, sw, sr := cli.writes.Load(), cli.reads.Load(), ser.writes.Load(), ser.reads.Load()
	for rank := 0; rank < n; rank++ {
		if err := c.SendSnapshot(smallSnapshot(rank)); err != nil {
			t.Fatal(err)
		}
	}
	cw, cr, sw, sr = cli.writes.Load()-cw, cli.reads.Load()-cr, ser.writes.Load()-sw, ser.reads.Load()-sr
	if cw != n || cr != n || sw != n || sr != n {
		t.Fatalf("%d acked snapshots cost the client %d writes and %d reads, the server %d writes and %d reads; want %d of each",
			n, cw, cr, sw, sr, n)
	}
	c.Close()
	for deadline := time.Now().Add(2 * time.Second); srv.m.ActiveConns.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := cli.writes.Load(); got != n+2 {
		t.Fatalf("%d client writes after Close, want %d: the sends plus one bare hello", got, n+2)
	}
}

// cannedConn answers every Write with the same pre-encoded ack: the
// producer's side of an exchange with no collector in the process, so
// an allocation count sees the client alone.
type cannedConn struct {
	net.Conn // nil: only the methods below are called
	ack      []byte
	pending  []byte
}

func (c *cannedConn) Write(p []byte) (int, error) { c.pending = c.ack; return len(p), nil }
func (c *cannedConn) Read(p []byte) (int, error) {
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}
func (c *cannedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *cannedConn) SetWriteDeadline(time.Time) error { return nil }
func (c *cannedConn) Close() error                     { return nil }

// TestWarmSendAllocations pins what a send on a warm held connection
// allocates on the producer: two objects to encode — the snapshot body
// and the hello body, each sized before it is filled, framed into the
// connection's reused write buffer — and a handful more to read and
// decode the ack.
func TestWarmSendAllocations(t *testing.T) {
	ack := wire.AppendFrame(nil, wire.TypeAck, (&wire.Ack{Status: wire.AckOK, RecvNs: 1, SendNs: 2}).Encode())
	c := &Client{Run: RunInfo{RunID: "allocs", WorldSize: 4}, Dial: func(string) (net.Conn, error) {
		return &cannedConn{ack: ack}, nil
	}}
	s := smallSnapshot(1)
	if err := c.SendSnapshot(s); err != nil {
		t.Fatal(err)
	}
	rc := c.idle[0]
	encode := testing.AllocsPerRun(200, func() {
		rc.wbuf = wire.AppendFrame(wire.AppendFrame(rc.wbuf[:0], wire.TypeHello, c.hello(s.Rank).Encode()),
			wire.TypeSnapshot, wire.EncodeSnapshot(s))
	})
	if encode > 2 {
		t.Fatalf("encoding one exchange into a warm write buffer allocates %v objects, want <= 2", encode)
	}
	send := testing.AllocsPerRun(200, func() {
		if err := c.SendSnapshot(s); err != nil {
			t.Fatal(err)
		}
	})
	if send > 8 {
		t.Fatalf("a warm SendSnapshot allocates %v objects on the producer, want <= 8", send)
	}
	t.Logf("warm send: %v allocations to encode, %v for the whole exchange", encode, send)
}
