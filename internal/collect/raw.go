package collect

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"github.com/hpcrepro/pilgrim/internal/wire"
)

// RawConn is the frame-level send path under Client: one held
// collector connection, one Write and one buffered read per exchange.
// Client builds its frames from a *core.Snapshot into the connection's
// write buffer; a replayer already holds the exact wire bytes
// (captured journal entries, possibly re-keyed) and ships them
// verbatim, since decoding and re-encoding them would only cost CPU
// and risk byte-level drift. Loadgen keeps thousands of these open,
// one per amplified stream. Not safe for concurrent use.
type RawConn struct {
	conn    net.Conn
	br      *bufio.Reader
	timeout time.Duration
	wbuf    []byte // the exchange being built; reused across exchanges
	dead    bool   // the last exchange left the connection unusable
}

func newRawConn(conn net.Conn, timeout time.Duration) *RawConn {
	return &RawConn{conn: conn, br: bufio.NewReader(conn), timeout: timeout}
}

// DialRaw opens a raw frame connection to a collector's ingest
// address. timeout bounds the dial and every subsequent read/write
// (0 means 30s).
func DialRaw(addr string, timeout time.Duration) (*RawConn, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return newRawConn(conn, timeout), nil
}

// SendFrame writes pre-encoded frames (header + body + CRC) as-is.
func (rc *RawConn) SendFrame(frame []byte) error {
	rc.conn.SetWriteDeadline(time.Now().Add(rc.timeout))
	_, err := rc.conn.Write(frame)
	return err
}

// reply is one collector response: exactly one field is set.
type reply struct {
	ack   *wire.Ack
	nack  *wire.Nack
	trace []byte
}

// roundTrip puts rc.wbuf on the wire with one Write and reads the one
// frame the collector answers with: the wanted type (TypeAck or
// TypeTrace) or an admission Nack. A TypeError reply is a permanent
// error, anything else a transport error; after either, or a Nack, the
// connection is dead: serveConn admits nothing further on it. This is
// the only place a reply frame is interpreted.
func (rc *RawConn) roundTrip(want byte) (r reply, err error) {
	rc.dead = true // until the reply says otherwise
	if err := rc.SendFrame(rc.wbuf); err != nil {
		return r, fmt.Errorf("send: %w", err)
	}
	deadline := time.Time{} // a trace comes when the run finalizes, however long that is
	if want == wire.TypeAck {
		deadline = time.Now().Add(rc.timeout)
	}
	rc.conn.SetReadDeadline(deadline)
	typ, body, err := wire.ReadFrame(rc.br)
	switch {
	case err != nil:
		err = fmt.Errorf("read reply: %w", err)
	case typ == wire.TypeNack:
		r.nack, err = wire.DecodeNack(body)
	case typ == wire.TypeError:
		err = &permanentError{fmt.Errorf("collector error: %s", body)}
	case typ != want:
		err = fmt.Errorf("unexpected reply frame 0x%02x", typ)
	case typ == wire.TypeAck:
		r.ack, err = wire.DecodeAck(body)
	default:
		r.trace = body
	}
	rc.dead = err != nil || r.nack != nil
	return r, err
}

// SendPair ships a pre-encoded (hello, snapshot) frame pair and reads
// the collector's reply. Exactly one of ack and nack is non-nil on a
// nil error; on a nack or an error the connection should be dropped.
func (rc *RawConn) SendPair(helloFrame, snapFrame []byte) (*wire.Ack, *wire.Nack, error) {
	rc.wbuf = append(append(rc.wbuf[:0], helloFrame...), snapFrame...)
	r, err := rc.roundTrip(wire.TypeAck)
	return r.ack, r.nack, err
}

// WaitTrace blocks until runID finalizes at the collector and returns
// the serialized trace bytes. The read legitimately idles until the
// run completes (bounded server-side by the straggler deadline), so it
// carries no deadline; a dead collector closes the connection and the
// read falls out with an error.
func (rc *RawConn) WaitTrace(runID string) ([]byte, error) {
	rc.wbuf = wire.AppendFrame(rc.wbuf[:0], wire.TypeWait, (&wire.Wait{RunID: runID}).Encode())
	r, err := rc.roundTrip(wire.TypeTrace)
	if r.nack != nil {
		err = nackError(r.nack)
	}
	return r.trace, err
}

// Close drops the connection.
func (rc *RawConn) Close() error { return rc.conn.Close() }
