package load

import (
	"bytes"
	"errors"
	"fmt"
	"time"
)

// Tally is one connection's account of a pass over its stream.
type Tally struct {
	Sent   int // commands written
	Failed int // refused (-LOADSHED, -TIMEOUT), errored, or lost with the connection
	// GetNs and SetNs hold each answered command's latency: from writing
	// its window to parsing its reply.
	GetNs, SetNs []int64
	// Wrong is the first wrong value or protocol violation; it fails the
	// run. ConnErr is set when the connection broke.
	Wrong   error
	ConnErr error
}

func (t *Tally) wrong(err error) {
	if t.Wrong == nil {
		t.Wrong = err
	}
}

// Pass sends connection conn's stream of phase over c, depth commands per
// window, and checks every reply. The phase must have been generated (see
// Phase). onWindow, when non-nil, receives each window's start and end.
func (b *Book) Pass(c *Client, phase, conn, depth int, t *Tally, onWindow func(start, end time.Time)) {
	ops := b.phases[phase][conn]
	size := b.W.ValueSize
	if t.GetNs == nil {
		t.GetNs = make([]int64, 0, len(ops))
		t.SetNs = make([]int64, 0, len(ops))
	}
	key := make([]byte, 0, KeySize)
	val := make([]byte, 0, size+8)
	scratch := make([]byte, 0, size+8)
	for lo := 0; lo < len(ops); lo += depth {
		hi := min(lo+depth, len(ops))
		start := time.Now()
		for i, op := range ops[lo:hi] {
			key = AppendKey(key[:0], op.Key())
			if op.IsGet() {
				c.Get(key)
			} else {
				val = AppendValue(val[:0], op.Key(), Version(phase, conn, lo+i, op.Key()), size)
				c.Set(key, val)
			}
		}
		t.Sent += hi - lo
		if err := c.Flush(); err != nil {
			t.ConnErr = err
			t.Failed += len(ops) - lo
			return
		}
		for i := lo; i < hi; i++ {
			op := ops[i]
			kind, body, err := c.Read()
			if err != nil {
				if errors.Is(err, ErrProtocol) {
					t.wrong(err)
				} else {
					t.ConnErr = err
				}
				t.Failed += len(ops) - i
				return
			}
			ns := time.Since(start).Nanoseconds()
			if op.IsGet() {
				t.GetNs = append(t.GetNs, ns)
			} else {
				t.SetNs = append(t.SetNs, ns)
			}
			switch {
			case kind == Error:
				t.Failed++
			case op.IsGet() && (kind == Bulk || kind == Nil):
				if err := b.Check(op.Key(), body, scratch); err != nil {
					t.wrong(fmt.Errorf("GET: %w", err))
				}
			case !op.IsGet() && kind == Simple && bytes.Equal(body, []byte("OK")):
			default:
				t.wrong(fmt.Errorf("%w: %s key %d answered %c %q", ErrProtocol, verb(op), op.Key(), kind, body))
			}
		}
		if onWindow != nil {
			onWindow(start, time.Now())
		}
	}
}

func verb(op Op) string {
	if op.IsGet() {
		return "GET"
	}
	return "SET"
}
