package sig

import (
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// Window is the decoder's view of the encoder's request pools. The
// encoder gives each request a symbolic id from the pool of the
// signature that created it and recycles the id when the request
// completes (§3.4.3), so two live requests can share an id. Window
// maps an id back to the live request it names. It keeps the live
// requests of each id in creation order: a call that names one request
// takes the oldest, and a request array resolves positionally, the
// k-th occurrence of an id naming its k-th live request. R is the
// reader's own view of a request; the zero Window is empty.
type Window[R comparable] struct {
	live map[int64][]windowEntry[R]
}

type windowEntry[R comparable] struct {
	r          R
	persistent bool
}

// Add makes r the newest live request with symbolic id id. A
// persistent request stays live across completions, until Free.
func (w *Window[R]) Add(id int64, r R, persistent bool) {
	if w.live == nil {
		w.live = map[int64][]windowEntry[R]{}
	}
	w.live[id] = append(w.live[id], windowEntry[R]{r, persistent})
}

// Resolve resolves the request ids of a call positionally; a null id
// resolves to the zero R. A slot whose id has no live request left
// resolves to the zero R too, and the first such slot is reported.
func (w *Window[R]) Resolve(ids []DecodedValue) ([]R, error) {
	var err error
	taken := map[int64]int{}
	out := make([]R, len(ids))
	for i, v := range ids {
		if v.I < 0 {
			continue // MPI_REQUEST_NULL
		}
		k, q := taken[v.I], w.live[v.I]
		if k >= len(q) {
			if err == nil {
				err = fmt.Errorf("request slot %d: no live request with id %d", i, v.I)
			}
			continue
		}
		out[i] = q[k].r
		taken[v.I] = k + 1
	}
	return out, err
}

// Complete resolves the requests a Wait/Test call names, calls yield
// for each one it completed with the position of its status (see
// mpispec.Completion.Slots), and takes the non-persistent ones out of
// the window. It returns the resolved requests, whether the call
// completed any, and Resolve's error.
func (w *Window[R]) Complete(c *mpispec.Completion, d Decoded, yield func(r R, status int)) ([]R, bool, error) {
	var ids []DecodedValue
	if c.Requests >= 0 {
		ids = d.Args[c.Requests].Arr
	} else {
		ids = d.Args[c.Request : c.Request+1] // MPI_Wait's and MPI_Test's one request
	}
	rs, err := w.Resolve(ids)
	var none R
	completed := c.Slots(d.Arg, func(id int64, slot, status int) {
		if r := rs[slot]; r != none {
			w.complete(id, r)
			yield(r, status)
		}
	})
	return rs, completed, err
}

// Free takes the oldest live request with symbolic id id out of the
// window, persistent or not: MPI_Request_free.
func (w *Window[R]) Free(id int64) (R, error) {
	q := w.live[id]
	if len(q) == 0 {
		var none R
		return none, fmt.Errorf("no live request with id %d", id)
	}
	w.live[id] = q[1:]
	return q[0].r, nil
}

// complete takes r out of id's live requests unless it is persistent.
func (w *Window[R]) complete(id int64, r R) {
	q := w.live[id]
	for i, e := range q {
		if e.r == r && !e.persistent {
			w.live[id] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
}
