package collect

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/obs"
	"github.com/hpcrepro/pilgrim/internal/par"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

// RetryPolicy bounds the client's connect/send retry loop.
type RetryPolicy struct {
	// MaxAttempts per snapshot (default 5). An attempt is one exchange
	// (hello, snapshot, ack) on a held connection, or on a fresh dial
	// when none is idle. A held connection that turns out to be stale is
	// replaced at once and does not count as an attempt.
	MaxAttempts int
	// BaseDelay is the first backoff (default 50ms); each retry doubles
	// it up to MaxDelay (default 2s), jittered to avoid a thundering
	// herd of ranks retrying in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// MaxElapsed caps the whole retry loop's wall-clock budget (default
	// 30s): a backoff that would sleep past the deadline gives up
	// immediately instead, so a rank never stalls its producer longer
	// than the budget no matter how MaxAttempts and MaxDelay combine.
	// Negative means no deadline.
	MaxElapsed time.Duration
	// Seed fixes the jitter source for deterministic tests; 0 derives
	// one from the clock and PID (concurrent producer processes must
	// not jitter in lockstep).
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.MaxElapsed == 0 {
		p.MaxElapsed = 30 * time.Second
	}
	return p
}

// OverLimitError is the client-side face of an admission NACK: the
// collector is up but refused the work (max-runs, max-run-bytes, or
// max-conns). It is permanent — retrying the same bytes would only
// hammer an overloaded daemon — so callers fall back to local
// finalize immediately.
type OverLimitError struct {
	Code   uint8 // wire.NackMaxRuns, NackRunBytes, NackMaxConns
	Detail string
}

func (e *OverLimitError) Error() string {
	return fmt.Sprintf("collector over limit (%s): %s", wire.NackCodeString(e.Code), e.Detail)
}

// RunInfo identifies the run a client's snapshots belong to.
type RunInfo struct {
	RunID     string
	WorldSize int
	// Epoch keys the server's idempotent dedupe: re-sends of the same
	// (RunID, Rank, Epoch) ack as duplicates, and a higher epoch
	// restarts a finished run under the same RunID. Use a fresh value
	// per logical run (pilgrim.RunSim uses wall-clock nanoseconds) —
	// reusing a (RunID, Epoch) pair makes the collector treat the new
	// run's snapshots as duplicates of the old one and serve the old
	// trace back.
	Epoch      uint64
	TimingMode uint8
	TimingBase float64
}

// Client ships rank snapshots to a collector. Sends are idempotent —
// the server dedupes on (run, rank, epoch) — so any failure is safely
// retried with a full re-send.
//
// A client keeps the connections it opens for the life of its run: a
// sender takes an idle one or dials, and hands it back after a clean
// reply, so the client never holds more connections than it has had
// concurrent senders. WaitTrace (and so Collect) releases them once the
// trace is in hand; a caller that never waits calls Close.
type Client struct {
	Addr  string
	Run   RunInfo
	Retry RetryPolicy
	// IOTimeout bounds each dial/read/write (default 30s). WaitTrace
	// reads are exempt: they block until the run finalizes.
	IOTimeout time.Duration
	// Dial overrides the transport (tests inject flaky listeners);
	// nil dials TCP.
	Dial func(addr string) (net.Conn, error)
	Logf func(format string, args ...any)
	// Obs, when non-nil, records the client's side of the pipeline: a
	// dial span per connection opened, a send span per attempt, backoff
	// and NACK instants, and the wait for the finalized trace. Nil
	// disables tracing.
	Obs *obs.Sink

	jitterMu sync.Mutex
	jitter   *rand.Rand

	// mu guards the held connections no sender is using and the latest
	// completed hello/ack timing 4-tuple, which rides the next hello on
	// any connection (Close flushes the last one) to feed the
	// collector's clock-offset estimator.
	mu   sync.Mutex
	idle []*RawConn
	echo wire.ClockEcho
}

// storeEcho saves a completed round-trip sample for the next hello.
func (c *Client) storeEcho(e wire.ClockEcho) {
	c.mu.Lock()
	c.echo = e
	c.mu.Unlock()
}

// takeEcho returns the pending sample and clears it, so a round trip
// feeds the collector's estimator at most once.
func (c *Client) takeEcho() wire.ClockEcho {
	c.mu.Lock()
	e := c.echo
	c.echo = wire.ClockEcho{}
	c.mu.Unlock()
	return e
}

// acquire hands the caller a connection of its own: the most recently
// used idle one, or — when none is idle or fresh is set — a new dial.
func (c *Client) acquire(rank int, fresh bool) (rc *RawConn, reused bool, err error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 && !fresh {
		rc, c.idle = c.idle[n-1], c.idle[:n-1]
	}
	c.mu.Unlock()
	if rc != nil {
		return rc, true, nil
	}
	dsp := c.Obs.Start("client", "client.dial").WithRun(c.Run.RunID, rank, c.Run.Epoch)
	conn, err := c.dial()
	if err != nil {
		dsp.WithStr("result", "error").End()
		return nil, false, err
	}
	dsp.End()
	return newRawConn(conn, c.ioTimeout()), false, nil
}

// withConn runs one exchange on a held connection, or on a fresh one
// when none is idle, and afterwards keeps the connection or — if the
// exchange left it dead — drops it. A transport failure on a held
// connection means the collector dropped it while it sat idle
// (IdleTimeout, restart): the exchange is redone at once on a fresh
// dial, which costs the caller no retry attempt and is safe because
// ingest is idempotent on (run, rank, epoch).
func (c *Client) withConn(rank int, do func(rc *RawConn, reused bool) error) error {
	for fresh := false; ; fresh = true {
		rc, reused, err := c.acquire(rank, fresh)
		if err != nil {
			return err
		}
		err = do(rc, reused)
		if !rc.dead {
			c.mu.Lock()
			c.idle = append(c.idle, rc)
			c.mu.Unlock()
			return err
		}
		rc.Close()
		if _, permanent := err.(*permanentError); !reused || permanent {
			return err
		}
	}
}

// Close flushes the pending clock sample and drops every idle
// connection. The client stays usable: a later send dials again.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	if e := c.takeEcho(); e.Valid() && len(idle) > 0 {
		// A bare hello: the collector feeds its estimator, then reads EOF.
		h := c.hello(0)
		h.Echo = e
		_ = idle[0].SendFrame(wire.AppendHelloFrame(nil, h)) // best effort
	}
	for _, rc := range idle {
		rc.Close()
	}
	return nil
}

func (c *Client) ioTimeout() time.Duration {
	if c.IOTimeout > 0 {
		return c.IOTimeout
	}
	return 30 * time.Second
}

func (c *Client) dial() (net.Conn, error) {
	if c.Dial != nil {
		return c.Dial(c.Addr)
	}
	return net.DialTimeout("tcp", c.Addr, c.ioTimeout())
}

// backoff returns the jittered delay before retry attempt (1-based).
func (c *Client) backoff(attempt int) time.Duration {
	p := c.Retry.withDefaults()
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	c.jitterMu.Lock()
	if c.jitter == nil {
		seed := p.Seed
		if seed == 0 {
			// Mix the PID in: ranks in separate producer processes can
			// observe the same clock reading, and identical seeds would
			// recreate exactly the lockstep herd the jitter exists to break.
			seed = time.Now().UnixNano() ^ int64(os.Getpid())<<32
		}
		c.jitter = rand.New(rand.NewSource(seed))
	}
	// Half fixed, half uniform random: spreads lockstep ranks without
	// ever collapsing the delay to zero.
	d = d/2 + time.Duration(c.jitter.Int63n(int64(d/2)+1))
	c.jitterMu.Unlock()
	return d
}

func (c *Client) hello(rank int) *wire.Hello {
	return &wire.Hello{Version: wire.Version, RunID: c.Run.RunID, WorldSize: c.Run.WorldSize, Rank: rank,
		Epoch: c.Run.Epoch, TimingMode: c.Run.TimingMode, TimingBase: c.Run.TimingBase}
}

// sendOnce runs one attempt: hello and snapshot in one write, the ack
// in one read. The hello carries live span context (a fresh span ID
// also stamped on the client.send span, plus the send timestamp) so the
// collector can link its ingest spans to ours and correct the one-way
// latency for clock offset.
func (c *Client) sendOnce(rank int, body []byte) error {
	return c.withConn(rank, func(rc *RawConn, reused bool) error {
		spanID := obs.NextSpanID()
		ssp := c.Obs.Start("client", "client.send").WithRun(c.Run.RunID, rank, c.Run.Epoch).
			WithSpanID(spanID).WithAttr("bytes", int64(len(body)))
		if reused {
			ssp = ssp.WithAttr("reused", 1)
		}
		h := c.hello(rank)
		h.SpanID = spanID
		h.Echo = c.takeEcho()
		h.SendNs = time.Now().UnixNano() // T1 of this exchange
		rc.wbuf = framelog.AppendPair(rc.wbuf[:0], h, body)
		r, err := rc.roundTrip(wire.TypeAck)
		ackRecvNs := time.Now().UnixNano() // T4 of this exchange
		if err != nil {
			ssp.WithStr("result", "error").End()
			return err
		}
		ssp.End()
		if r.nack != nil {
			c.Obs.Start("client", "client.nack").WithRun(c.Run.RunID, rank, c.Run.Epoch).
				WithStr("code", wire.NackCodeString(r.nack.Code)).Emit()
			return nackError(r.nack)
		}
		if sample := (wire.ClockEcho{T1: h.SendNs, T2: r.ack.RecvNs, T3: r.ack.SendNs, T4: ackRecvNs}); sample.Valid() {
			c.storeEcho(sample)
		}
		if r.ack.Status == wire.AckError {
			// The server understood us and said no (epoch mismatch, run
			// already finalized): retrying the same bytes cannot succeed.
			return &permanentError{fmt.Errorf("collector rejected rank %d: %s", rank, r.ack.Detail)}
		}
		return nil // AckOK or AckDuplicate — the snapshot is merged
	})
}

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// nackError is the permanent error an admission NACK becomes.
func nackError(n *wire.Nack) error {
	return &permanentError{&OverLimitError{Code: n.Code, Detail: n.Detail}}
}

// retry runs once until it succeeds, fails permanently, or exhausts
// the policy: transient failures (refused connections, mid-stream
// resets) back off with jittered exponential delays, bounded by both
// MaxAttempts and the MaxElapsed deadline.
func (c *Client) retry(rank int, once func() error) error {
	what := func() string { // only a failure pays for its name
		if rank < 0 {
			return "wait for trace"
		}
		return "rank " + strconv.Itoa(rank)
	}
	p := c.Retry.withDefaults()
	var deadline time.Time // zero: no deadline
	if p.MaxElapsed >= 0 {
		deadline = time.Now().Add(p.MaxElapsed)
	}
	var last error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		err := once()
		if err == nil {
			return nil
		}
		if pe, ok := err.(*permanentError); ok {
			return pe.err
		}
		last = err
		if attempt < p.MaxAttempts {
			d := c.backoff(attempt)
			if !deadline.IsZero() && time.Until(deadline) < d {
				return fmt.Errorf("%s: retry deadline (%s) exceeded after %d attempts: %w",
					what(), p.MaxElapsed, attempt, last)
			}
			if c.Logf != nil {
				c.Logf("collect: %s attempt %d/%d failed (%v); retrying in %s",
					what(), attempt, p.MaxAttempts, err, d)
			}
			c.Obs.Start("client", "client.backoff").WithRun(c.Run.RunID, rank, c.Run.Epoch).
				WithAttr("attempt", int64(attempt)).WithAttr("delay_ns", int64(d)).Emit()
			time.Sleep(d)
		}
	}
	return fmt.Errorf("%s: %d attempts exhausted: %w", what(), p.MaxAttempts, last)
}

// SendSnapshot ships one rank's snapshot, retrying transient failures
// under the client's RetryPolicy.
func (c *Client) SendSnapshot(s *core.Snapshot) error {
	body := wire.EncodeSnapshot(s)
	if len(body) > wire.MaxFrame {
		return fmt.Errorf("rank %d: snapshot of %d bytes exceeds the frame cap", s.Rank, len(body))
	}
	return c.retry(s.Rank, func() error { return c.sendOnce(s.Rank, body) })
}

// SendAll ships every snapshot from up to 8 concurrent senders and
// returns the first failure (all sends still run to completion —
// partial delivery is fine, the straggler deadline or a later retry
// covers the rest).
func (c *Client) SendAll(snaps []*core.Snapshot) error {
	errs := make([]error, len(snaps))
	par.For(len(snaps), 8, func(i int) { errs[i] = c.SendSnapshot(snaps[i]) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// WaitTrace blocks until the run finalizes at the collector and
// returns the serialized trace bytes. It waits on one of the client's
// held connections and, trace in hand or not, releases them all.
func (c *Client) WaitTrace() (data []byte, err error) {
	defer c.Close()
	err = c.retry(-1, func() error {
		wsp := c.Obs.Start("client", "client.wait").WithRun(c.Run.RunID, -1, c.Run.Epoch)
		err := c.withConn(-1, func(rc *RawConn, _ bool) (err error) {
			data, err = rc.WaitTrace(c.Run.RunID)
			return err
		})
		if err != nil {
			wsp = wsp.WithStr("result", "error")
		}
		wsp.WithAttr("bytes", int64(len(data))).End()
		return err
	})
	return data, err
}

// Collect ships every snapshot and blocks for the finalized trace —
// the remote equivalent of core.FinalizeSnapshots. Callers fall back
// to the local merge on any error.
func (c *Client) Collect(snaps []*core.Snapshot) (*trace.File, error) {
	if err := c.SendAll(snaps); err != nil {
		return nil, err
	}
	data, err := c.WaitTrace()
	if err != nil {
		return nil, err
	}
	file, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("parse collected trace: %w", err)
	}
	return file, nil
}
