package mpispec

import "strings"

// Completion describes one of the eight calls that complete requests:
// MPI_Wait, MPI_Test and their all, any and some variants. It holds
// the positions of their parameters, read off Spec by name; a position
// is -1 where the call has no such parameter.
type Completion struct {
	Count    int // "count" or "incount": the length of the request array
	Request  int // "request": the one request of MPI_Wait and MPI_Test
	Requests int // "requests": the request array of the other six
	Flag     int // "flag": zero when the call completed nothing
	Index    int // "index": the one slot completed, or MPI_UNDEFINED
	Outcount int // "outcount": how many slots were completed
	Indices  int // "indices": the slots completed, in order
	Status   int // "status": the status of the one request completed
	Statuses int // "statuses": one per slot, or one per index with Indices

	// Blocking marks MPI_Wait*, which wait until they can complete a
	// request. Blocking is not a parameter property: MPI names the
	// blocking calls MPI_Wait*, and MPI_Test* return at once.
	Blocking bool
}

// completions is read off Spec: a call completes requests when it
// takes them InOut and returns a status for them.
var completions = func() (t [NumFuncs]*Completion) {
	for f, s := range Spec {
		c := Completion{-1, -1, -1, -1, -1, -1, -1, -1, -1, strings.HasPrefix(s.Name, "MPI_Wait")}
		takes := false
		for i, p := range s.Params {
			switch p.Name {
			case "count", "incount":
				c.Count = i
			case "request":
				c.Request, takes = i, p.Dir == InOut
			case "requests":
				c.Requests, takes = i, p.Dir == InOut
			case "flag":
				c.Flag = i
			case "index":
				c.Index = i
			case "outcount":
				c.Outcount = i
			case "indices":
				c.Indices = i
			case "status":
				c.Status = i
			case "statuses":
				c.Statuses = i
			}
		}
		if takes && (c.Status >= 0 || c.Statuses >= 0) {
			t[f] = &c
		}
	}
	return t
}()

// CompletionOf returns the completion descriptor of f, or nil if f
// completes no request.
func CompletionOf(f FuncID) *Completion {
	if int(f) < len(completions) {
		return completions[f]
	}
	return nil
}

// Every reports whether the call completes every request it names or
// none: MPI_Wait, MPI_Test, MPI_Waitall and MPI_Testall.
func (c *Completion) Every() bool { return c.Index < 0 && c.Indices < 0 }

// Slots calls yield for each request the call completed, in the order
// it completed them, and reports false when the call's flag says it
// completed nothing. arg reads the call's recorded arguments: argument
// i's integer for k < 0, else element k of array argument i, with ok
// false past the array's end. yield gets the request as recorded, its
// slot in the request array (0 for the one request of MPI_Wait and
// MPI_Test) and the position of its status in Statuses (-1 for the
// one Status).
func (c *Completion) Slots(arg func(i, k int) (v int64, ok bool), yield func(req int64, slot, status int)) (completed bool) {
	if c.Flag >= 0 {
		if flag, _ := arg(c.Flag, -1); flag == 0 {
			return false
		}
	}
	switch {
	case c.Request >= 0:
		req, _ := arg(c.Request, -1)
		yield(req, 0, -1)
	case c.Index >= 0:
		if slot, _ := arg(c.Index, -1); slot >= 0 {
			if req, ok := arg(c.Requests, int(slot)); ok {
				yield(req, int(slot), -1)
			}
		}
	case c.Indices >= 0:
		for k := 0; ; k++ {
			slot, ok := arg(c.Indices, k)
			if !ok {
				return true
			}
			if slot >= 0 {
				if req, ok := arg(c.Requests, int(slot)); ok {
					yield(req, int(slot), k)
				}
			}
		}
	default:
		for slot := 0; ; slot++ {
			req, ok := arg(c.Requests, slot)
			if !ok {
				return true
			}
			yield(req, slot, slot)
		}
	}
	return true
}
