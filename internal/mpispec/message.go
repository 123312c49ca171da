package mpispec

import "strings"

// Half is one side of a point-to-point message: the positions of its
// buffer, count, datatype, peer (dest or source) and tag.
type Half struct {
	Buf, Count, Datatype, Peer, Tag int
}

// Message describes one of the 17 calls that post point-to-point
// messages: the blocking sends, MPI_Recv, their MPI_I* and MPI_*_init
// twins, MPI_Sendrecv and MPI_Sendrecv_replace. It holds the positions
// of their parameters, read off Spec by name; a position is -1 where
// the call has no such parameter.
type Message struct {
	Send, Recv *Half // nil where the call posts no such side
	Comm       int   // "comm"
	Request    int   // "request": the request the call creates
	Status     int   // "status": the status of the receive it completes

	// Persistent marks MPI_*_init, whose request posts its message at
	// each MPI_Start. Persistence is not a parameter property: MPI names
	// the calls that make persistent requests MPI_*_init.
	Persistent bool
}

// messages is read off Spec: a call posts a send when it names a
// "dest" and a send buffer, and a receive when it names a "source" and
// a receive buffer. An In "buf" is a send buffer, an Out one a receive
// buffer and an InOut one both; "count", "datatype" and "tag" serve
// whichever sides the call has.
var messages = func() (t [NumFuncs]*Message) {
	for f, s := range Spec {
		m := Message{Comm: -1, Request: -1, Status: -1, Persistent: strings.HasSuffix(s.Name, "_init")}
		snd, rcv := Half{-1, -1, -1, -1, -1}, Half{-1, -1, -1, -1, -1}
		for i, p := range s.Params {
			switch p.Name {
			case "buf":
				if p.Dir != Out {
					snd.Buf = i
				}
				if p.Dir != In {
					rcv.Buf = i
				}
			case "sendbuf":
				snd.Buf = i
			case "recvbuf":
				rcv.Buf = i
			case "count":
				snd.Count, rcv.Count = i, i
			case "sendcount":
				snd.Count = i
			case "recvcount":
				rcv.Count = i
			case "datatype":
				snd.Datatype, rcv.Datatype = i, i
			case "sendtype":
				snd.Datatype = i
			case "recvtype":
				rcv.Datatype = i
			case "dest":
				snd.Peer = i
			case "source":
				rcv.Peer = i
			case "tag":
				snd.Tag, rcv.Tag = i, i
			case "sendtag":
				snd.Tag = i
			case "recvtag":
				rcv.Tag = i
			case "comm":
				m.Comm = i
			case "request":
				m.Request = i
			case "status":
				m.Status = i
			}
		}
		if snd.Peer >= 0 && snd.Buf >= 0 {
			m.Send = &snd
		}
		if rcv.Peer >= 0 && rcv.Buf >= 0 {
			m.Recv = &rcv
		}
		if m.Send != nil || m.Recv != nil {
			t[f] = &m
		}
	}
	return t
}()

// MessageOf returns the message descriptor of f, or nil if f posts no
// point-to-point message.
func MessageOf(f FuncID) *Message {
	if int(f) < len(messages) {
		return messages[f]
	}
	return nil
}
