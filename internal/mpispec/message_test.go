package mpispec

import "testing"

// TestMessageDescriptors checks the descriptors read off Spec: the 17
// message-posting calls have one, naming parameters of the kinds their
// names promise, with the sides, request and persistence their names
// promise, and no other function has one.
func TestMessageDescriptors(t *testing.T) {
	const send, recv, both = 1, 2, 3
	const request, persistent = 4, 8
	want := map[FuncID]int{
		FSend: send, FBsend: send, FSsend: send, FRsend: send, FRecv: recv,
		FIsend: send | request, FIbsend: send | request, FIssend: send | request, FIrsend: send | request,
		FIrecv:    recv | request,
		FSendInit: send | request | persistent, FBsendInit: send | request | persistent,
		FSsendInit: send | request | persistent, FRsendInit: send | request | persistent,
		FRecvInit: recv | request | persistent,
		FSendrecv: both, FSendrecvReplace: both,
	}
	for id := FuncID(0); id < NumFuncs; id++ {
		m := MessageOf(id)
		w, posts := want[id]
		if !posts {
			if m != nil {
				t.Errorf("%s has a message descriptor", id.Name())
			}
			continue
		}
		if m == nil {
			t.Errorf("%s has no message descriptor", id.Name())
			continue
		}
		params := Spec[id].Params
		named := map[int]bool{}
		check := func(name string, at int, kind ParamKind) {
			if at < 0 {
				t.Errorf("%s: no %s", id.Name(), name)
				return
			}
			named[at] = true
			if got := params[at].Kind; got != kind {
				t.Errorf("%s: %s (parameter %d) is %v, want %v", id.Name(), name, at, got, kind)
			}
		}
		for _, h := range []struct {
			name string
			half *Half
			want bool
		}{{"send", m.Send, w&send != 0}, {"receive", m.Recv, w&recv != 0}} {
			if (h.half != nil) != h.want {
				t.Errorf("%s: %s side %v, want %v", id.Name(), h.name, h.half != nil, h.want)
				continue
			}
			if h.half != nil {
				check(h.name+" buf", h.half.Buf, KPtr)
				check(h.name+" count", h.half.Count, KInt)
				check(h.name+" datatype", h.half.Datatype, KDatatype)
				check(h.name+" peer", h.half.Peer, KRank)
				check(h.name+" tag", h.half.Tag, KTag)
			}
		}
		check("comm", m.Comm, KComm)
		if w&request != 0 {
			check("request", m.Request, KRequest)
		} else if m.Request >= 0 {
			t.Errorf("%s: request at %d, want none", id.Name(), m.Request)
		}
		if w&recv != 0 && w&request == 0 {
			check("status", m.Status, KStatus)
		} else if m.Status >= 0 {
			t.Errorf("%s: status at %d, want none", id.Name(), m.Status)
		}
		if len(named) != len(params) {
			t.Errorf("%s: descriptor names %d of %d parameters", id.Name(), len(named), len(params))
		}
		if m.Persistent != (w&persistent != 0) {
			t.Errorf("%s: Persistent = %v", id.Name(), m.Persistent)
		}
	}
	m := MessageOf(FSendrecvReplace)
	if m.Send.Buf != m.Recv.Buf || m.Send.Count != m.Recv.Count || m.Send.Datatype != m.Recv.Datatype {
		t.Errorf("MPI_Sendrecv_replace: sides do not share one buffer: %+v, %+v", *m.Send, *m.Recv)
	}
	if m := MessageOf(FSendrecv); m.Send.Buf == m.Recv.Buf || m.Send.Tag == m.Recv.Tag {
		t.Errorf("MPI_Sendrecv: sides share parameters: %+v, %+v", *m.Send, *m.Recv)
	}
}
