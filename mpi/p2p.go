package mpi

import (
	"fmt"
	"sync"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// mailbox holds the unmatched sends and posted receives for one
// (context, destination) pair. MPI's non-overtaking rule is preserved
// by matching in arrival/post order.
type mailbox struct {
	mu    sync.Mutex
	sends []*envelope
	recvs []*recvPost
}

// envelope is a message in flight.
type envelope struct {
	src     int // comm rank of sender (in the receiver's addressing space)
	tag     int
	data    []byte
	sentAt  int64    // sender virtual clock at send
	sreq    *Request // synchronous send to complete on match (nil otherwise)
	matched bool
}

// recvPost is a posted receive waiting for a matching send.
type recvPost struct {
	box       *mailbox
	srcSel    int // comm rank or AnySource
	tagSel    int // tag or AnyTag
	buf       []byte
	req       *Request
	withdrawn bool
}

// withdraw removes the post from its mailbox (for Cancel). Reports
// whether the post was still pending.
func (rp *recvPost) withdraw() bool {
	rp.box.mu.Lock()
	defer rp.box.mu.Unlock()
	for i, q := range rp.box.recvs {
		if q == rp {
			rp.box.recvs = append(rp.box.recvs[:i], rp.box.recvs[i+1:]...)
			rp.withdrawn = true
			return true
		}
	}
	return false
}

func (w *World) box(ctx int64, destWorld int) *mailbox {
	key := mbKey{ctx, destWorld}
	w.mbMu.Lock()
	defer w.mbMu.Unlock()
	b := w.boxes[key]
	if b == nil {
		b = &mailbox{}
		w.boxes[key] = b
	}
	return b
}

func (e *envelope) matches(rp *recvPost) bool {
	return (rp.srcSel == AnySource || rp.srcSel == e.src) &&
		(rp.tagSel == AnyTag || rp.tagSel == e.tag)
}

// deliver copies the payload into the post's buffer and completes the
// receive request.
func deliver(e *envelope, rp *recvPost) {
	n := copy(rp.buf, e.data)
	st := Status{Source: e.src, Tag: e.tag, Count: n}
	avail := e.sentAt + transferCost(len(e.data))
	rp.req.complete(st, avail)
	if e.sreq != nil {
		e.sreq.complete(Status{Source: e.src, Tag: e.tag, Count: len(e.data)}, avail)
	}
	e.matched = true
}

// postSend routes an envelope to the destination mailbox, matching a
// posted receive if possible.
func (w *World) postSend(ctx int64, destWorld int, e *envelope) {
	w.progress.Add(1)
	b := w.box(ctx, destWorld)
	b.mu.Lock()
	for i, rp := range b.recvs {
		if e.matches(rp) {
			b.recvs = append(b.recvs[:i], b.recvs[i+1:]...)
			b.mu.Unlock()
			deliver(e, rp)
			return
		}
	}
	b.sends = append(b.sends, e)
	b.mu.Unlock()
}

// postRecv registers a receive, matching a pending send if possible.
func (w *World) postRecv(ctx int64, destWorld int, rp *recvPost) {
	w.progress.Add(1)
	b := w.box(ctx, destWorld)
	rp.box = b
	b.mu.Lock()
	for i, e := range b.sends {
		if e.matches(rp) {
			b.sends = append(b.sends[:i], b.sends[i+1:]...)
			b.mu.Unlock()
			deliver(e, rp)
			return
		}
	}
	b.recvs = append(b.recvs, rp)
	b.mu.Unlock()
}

// probe looks for a matching pending send without removing it. A
// ProcNull source matches at once, as in MPI.
func (p *Proc) probe(c *Comm, source, tag int) (Status, bool) {
	if source == ProcNull {
		return Status{Source: ProcNull, Tag: AnyTag}, true
	}
	b := p.world.box(c.ctx, p.rank)
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.sends {
		if (source == AnySource || source == e.src) && (tag == AnyTag || tag == e.tag) {
			return Status{Source: e.src, Tag: e.tag, Count: len(e.data)}, true
		}
	}
	return Status{}, false
}

// resolveDest maps a communicator-relative destination rank to a world
// rank; intercommunicators address the remote group.
func (c *Comm) resolveDest(rank int) (int, error) {
	g := c.group
	if c.remote != nil {
		g = c.remote
	}
	if rank < 0 || rank >= len(g) {
		return 0, fmt.Errorf("mpi: rank %d out of range for %s (size %d)", rank, c.name, len(g))
	}
	return g[rank], nil
}

// checkSource refuses a receive's source that names no rank of c (of
// its remote group, on an intercommunicator), as resolveDest refuses a
// send's dest. AnySource and ProcNull pass.
func (c *Comm) checkSource(source int) error {
	if source == AnySource || source == ProcNull {
		return nil
	}
	_, err := c.resolveDest(source)
	return err
}

// checkP2P checks a point-to-point call's datatypes and communicator.
func checkP2P(c *Comm, dts ...*Datatype) error {
	for _, dt := range dts {
		if err := dt.checkUsable(); err != nil {
			return err
		}
	}
	return c.checkUsable()
}

// msg is the argument layout the point-to-point calls share: count
// elements of dt at buf, exchanged with peer (a send's dest, a
// receive's source) under tag on c.
type msg struct {
	buf   Ptr
	count int
	dt    *Datatype
	peer  int
	tag   int
	c     *Comm
	sync  bool // a synchronous send completes when the receiver matches it
}

// postSend is the one send path. It resolves m's dest, copies the
// payload into an envelope stamped with the sender's clock and posts it
// through postEnvelope. inject charges a blocking send's injection cost
// before the stamp. A synchronous send passes sreq, called once dest
// has resolved, for the request the receiver's match completes. A
// ProcNull dest posts nothing.
func (p *Proc) postSend(m msg, inject bool, sreq func() *Request) error {
	if m.peer == ProcNull {
		return nil
	}
	destWorld, err := m.c.resolveDest(m.peer)
	if err != nil {
		return err
	}
	data := snapshot(m.buf, m.count*m.dt.size)
	if inject {
		p.advanceClock(transferCost(len(data)) / 4)
	}
	e := &envelope{src: m.c.myRank, tag: m.tag, data: data, sentAt: p.clock.Load()}
	if sreq != nil {
		e.sreq = sreq()
		e.sreq.target = sendTarget(m.c, destWorld, m.peer, m.tag)
	}
	p.postEnvelope(m.c.ctx, destWorld, e)
	return nil
}

// startSend starts a non-blocking or persistent send on r: a
// synchronous send's r completes on the match, any other's at once.
func (p *Proc) startSend(r *Request, m msg) error {
	switch {
	case m.peer == ProcNull:
		r.complete(Status{Source: ProcNull, Tag: AnyTag}, p.clock.Load())
		return nil
	case m.sync:
		return p.postSend(m, false, func() *Request { return r })
	}
	if err := p.postSend(m, false, nil); err != nil {
		return err
	}
	r.complete(Status{Source: m.c.myRank, Tag: m.tag, Count: m.count * m.dt.size}, p.clock.Load())
	return nil
}

// startRecv is the one receive post: it registers a receive that
// completes r. A ProcNull source completes r at once.
func (p *Proc) startRecv(r *Request, m msg) error {
	if m.peer == ProcNull {
		r.complete(Status{Source: ProcNull, Tag: AnyTag}, p.clock.Load())
		return nil
	}
	if err := m.c.checkSource(m.peer); err != nil {
		return err
	}
	r.target = recvTarget(m.c, m.peer, m.tag)
	dst := m.buf.data
	if nbytes := m.count * m.dt.size; len(dst) > nbytes {
		dst = dst[:nbytes]
	}
	r.post = &recvPost{srcSel: m.peer, tagSel: m.tag, buf: dst, req: r}
	p.world.postRecv(m.c.ctx, p.rank, r.post)
	return nil
}

// send implements the blocking sends. Standard mode buffers (completes
// locally); synchronous mode waits for the match.
func (p *Proc) send(id mpispec.FuncID, m msg) error {
	if err := checkP2P(m.c, m.dt); err != nil {
		return err
	}
	args := []Value{vPtr(m.buf), vInt(m.count), vType(m.dt), vRank(m.peer), vTag(m.tag), vComm(m.c)}
	var err error
	p.icall(id, args, func() {
		if !m.sync {
			err = p.postSend(m, true, nil)
			return
		}
		var sreq *Request
		err = p.postSend(m, true, func() *Request {
			sreq = p.newRequest()
			return sreq
		})
		if sreq != nil {
			sreq.waitDone()
			sreq.consume()
		}
	})
	return err
}

// recv blocks until a matching message arrives and returns its status.
func (p *Proc) recv(m msg) (Status, error) {
	if m.peer == ProcNull {
		return Status{Source: ProcNull, Tag: AnyTag}, nil
	}
	r := p.newRequest()
	if err := p.startRecv(r, m); err != nil {
		return Status{}, err
	}
	r.waitDone()
	return r.consume(), nil
}

// Send is the standard-mode blocking send (buffered in this
// simulator, like eager-protocol MPI sends).
func (p *Proc) Send(buf Ptr, count int, dt *Datatype, dest, tag int, c *Comm) error {
	return p.send(mpispec.FSend, msg{buf, count, dt, dest, tag, c, false})
}

// Bsend is the buffered send.
func (p *Proc) Bsend(buf Ptr, count int, dt *Datatype, dest, tag int, c *Comm) error {
	return p.send(mpispec.FBsend, msg{buf, count, dt, dest, tag, c, false})
}

// Ssend is the synchronous send: returns only after the receiver
// matched the message.
func (p *Proc) Ssend(buf Ptr, count int, dt *Datatype, dest, tag int, c *Comm) error {
	return p.send(mpispec.FSsend, msg{buf, count, dt, dest, tag, c, true})
}

// Rsend is the ready send (treated as standard mode).
func (p *Proc) Rsend(buf Ptr, count int, dt *Datatype, dest, tag int, c *Comm) error {
	return p.send(mpispec.FRsend, msg{buf, count, dt, dest, tag, c, false})
}

// Recv is the blocking receive. status may be nil.
func (p *Proc) Recv(buf Ptr, count int, dt *Datatype, source, tag int, c *Comm, status *Status) error {
	if err := checkP2P(c, dt); err != nil {
		return err
	}
	args := []Value{vPtr(buf), vInt(count), vType(dt), vRank(source), vTag(tag), vComm(c), vStatus()}
	var st Status
	var err error
	p.icall(mpispec.FRecv, args, func() {
		st, err = p.recv(msg{buf, count, dt, source, tag, c, false})
		setStatus(&args[6], st)
	})
	if status != nil {
		*status = st
	}
	return err
}

// startRequest is the entry of the non-blocking and persistent
// point-to-point calls: start posts m on the request, at once for a
// non-blocking call and at every Start for a persistent one, where a
// start that fails completes the request with an error status.
func (p *Proc) startRequest(id mpispec.FuncID, m msg, persistent bool, start func(*Proc, *Request, msg) error) (*Request, error) {
	if err := checkP2P(m.c, m.dt); err != nil {
		return nil, err
	}
	req := p.newRequest()
	req.persistent = persistent
	args := []Value{vPtr(m.buf), vInt(m.count), vType(m.dt), vRank(m.peer), vTag(m.tag), vComm(m.c), vReq(req)}
	var err error
	p.icall(id, args, func() {
		if !persistent {
			err = start(p, req, m)
			return
		}
		req.restart = func(r *Request) {
			if start(p, r, m) != nil {
				r.complete(Status{Source: Undefined, Tag: Undefined, Error: 1}, p.clock.Load())
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return req, nil
}

// Isend starts a standard-mode non-blocking send.
func (p *Proc) Isend(buf Ptr, count int, dt *Datatype, dest, tag int, c *Comm) (*Request, error) {
	return p.startRequest(mpispec.FIsend, msg{buf, count, dt, dest, tag, c, false}, false, (*Proc).startSend)
}

// Ibsend starts a buffered non-blocking send.
func (p *Proc) Ibsend(buf Ptr, count int, dt *Datatype, dest, tag int, c *Comm) (*Request, error) {
	return p.startRequest(mpispec.FIbsend, msg{buf, count, dt, dest, tag, c, false}, false, (*Proc).startSend)
}

// Issend starts a synchronous non-blocking send.
func (p *Proc) Issend(buf Ptr, count int, dt *Datatype, dest, tag int, c *Comm) (*Request, error) {
	return p.startRequest(mpispec.FIssend, msg{buf, count, dt, dest, tag, c, true}, false, (*Proc).startSend)
}

// Irsend starts a ready-mode non-blocking send.
func (p *Proc) Irsend(buf Ptr, count int, dt *Datatype, dest, tag int, c *Comm) (*Request, error) {
	return p.startRequest(mpispec.FIrsend, msg{buf, count, dt, dest, tag, c, false}, false, (*Proc).startSend)
}

// Irecv starts a non-blocking receive.
func (p *Proc) Irecv(buf Ptr, count int, dt *Datatype, source, tag int, c *Comm) (*Request, error) {
	return p.startRequest(mpispec.FIrecv, msg{buf, count, dt, source, tag, c, false}, false, (*Proc).startRecv)
}

// sendrecv is the body of Sendrecv and SendrecvReplace. Both peers are
// checked before either half runs; the send half is buffered (posted
// without the blocking injection charge), then the receive blocks.
func (p *Proc) sendrecv(send, recv msg) (Status, error) {
	if err := recv.c.checkSource(recv.peer); err != nil {
		return Status{}, err
	}
	if err := p.postSend(send, false, nil); err != nil {
		return Status{}, err
	}
	return p.recv(recv)
}

// Sendrecv performs a combined send and receive.
func (p *Proc) Sendrecv(sendbuf Ptr, sendcount int, sendtype *Datatype, dest, sendtag int,
	recvbuf Ptr, recvcount int, recvtype *Datatype, source, recvtag int, c *Comm, status *Status) error {
	if err := checkP2P(c, sendtype, recvtype); err != nil {
		return err
	}
	args := []Value{vPtr(sendbuf), vInt(sendcount), vType(sendtype), vRank(dest), vTag(sendtag),
		vPtr(recvbuf), vInt(recvcount), vType(recvtype), vRank(source), vTag(recvtag),
		vComm(c), vStatus()}
	var st Status
	var err error
	p.icall(mpispec.FSendrecv, args, func() {
		st, err = p.sendrecv(msg{sendbuf, sendcount, sendtype, dest, sendtag, c, false},
			msg{recvbuf, recvcount, recvtype, source, recvtag, c, false})
		setStatus(&args[11], st)
	})
	if status != nil {
		*status = st
	}
	return err
}

// SendrecvReplace sends and receives using a single buffer.
func (p *Proc) SendrecvReplace(buf Ptr, count int, dt *Datatype, dest, sendtag, source, recvtag int, c *Comm, status *Status) error {
	if err := checkP2P(c, dt); err != nil {
		return err
	}
	args := []Value{vPtr(buf), vInt(count), vType(dt), vRank(dest), vTag(sendtag),
		vRank(source), vTag(recvtag), vComm(c), vStatus()}
	var st Status
	var err error
	p.icall(mpispec.FSendrecvReplace, args, func() {
		st, err = p.sendrecv(msg{buf, count, dt, dest, sendtag, c, false}, msg{buf, count, dt, source, recvtag, c, false})
		setStatus(&args[8], st)
	})
	if status != nil {
		*status = st
	}
	return err
}

// Iprobe checks for a matching message without receiving it.
func (p *Proc) Iprobe(source, tag int, c *Comm, status *Status) (bool, error) {
	if err := c.checkUsable(); err != nil {
		return false, err
	}
	args := []Value{vRank(source), vTag(tag), vComm(c), vInt(0), vStatus()}
	var found bool
	var st Status
	var err error
	p.icall(mpispec.FIprobe, args, func() {
		if err = c.checkSource(source); err != nil {
			return
		}
		st, found = p.probe(c, source, tag)
		args[3].I = b2i(found)
		if found {
			setStatus(&args[4], st)
		}
	})
	if status != nil && found {
		*status = st
	}
	return found, err
}

// Probe blocks until a matching message is available.
func (p *Proc) Probe(source, tag int, c *Comm, status *Status) error {
	if err := c.checkUsable(); err != nil {
		return err
	}
	args := []Value{vRank(source), vTag(tag), vComm(c), vStatus()}
	var st Status
	var err error
	p.icall(mpispec.FProbe, args, func() {
		if err = c.checkSource(source); err != nil {
			return
		}
		defer p.world.setBlocked(p, recvTarget(c, source, tag))()
		for {
			var found bool
			st, found = p.probe(c, source, tag)
			if found {
				break
			}
			p.world.checkRevoked()
			// Busy-wait politely: no cond is signalled on message
			// arrival for probes, so yield.
			yield()
		}
		setStatus(&args[3], st)
	})
	if status != nil {
		*status = st
	}
	return err
}
