package server

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// scheduleKey introduces the schedule member, the last one of every
// schedule-bearing response. It cannot occur inside a string, where every
// quote is escaped, so its first occurrence is the member.
var scheduleKey = []byte(`,"schedule":`)

// remapBody translates a cached response body — whose schedule placements
// are in canonical task AND processor numbering — back to the requester's
// numbering. For identity permutations the cached bytes are returned
// untouched, so the common path stays zero-copy. Otherwise the body is
// spliced: the bytes before the schedule are kept as cached, the
// placements are parsed (parseSchedule), renumbered with bounds checks,
// put back in (proc, start) order when processors were renumbered, and
// appended. The result is the bytes json.Marshal gives for the remapped
// response; omitEmpty says the schedule member is omitempty
// (SolveResponse), so an empty or null schedule is dropped. A body with no
// schedule member has nothing to renumber and is returned as cached.
func remapBody(cg canonGraph, invProc []platform.Proc, body []byte, omitEmpty bool) ([]byte, error) {
	if (cg.identity && invProc == nil) || body == nil {
		return body, nil
	}
	at := bytes.Index(body, scheduleKey)
	if at < 0 {
		return body, nil
	}
	pls, err := parseSchedule(body[at+len(scheduleKey):], len(cg.inv))
	if err != nil {
		return nil, fmt.Errorf("remap cached response: %w", err)
	}
	if len(pls) == 0 {
		if !omitEmpty {
			return body, nil // null and [] stay as they are
		}
		return append(append(make([]byte, 0, at+1), body[:at]...), '}'), nil
	}
	for i := range pls {
		pl := &pls[i]
		if pl.Task < 0 || int(pl.Task) >= len(cg.inv) {
			return nil, fmt.Errorf("remap cached response: task %d outside [0,%d)", pl.Task, len(cg.inv))
		}
		pl.Task = cg.inv[pl.Task]
		if invProc != nil {
			if pl.Proc < 0 || int(pl.Proc) >= len(invProc) {
				return nil, fmt.Errorf("remap cached response: proc %d outside [0,%d)", pl.Proc, len(invProc))
			}
			pl.Proc = invProc[pl.Proc]
		}
	}
	// Restore the wire order (proc, start): a processor renumbering
	// perturbs it. Task IDs never tie-break within one processor because
	// two tasks cannot start together there.
	if invProc != nil {
		slices.SortStableFunc(pls, func(a, b sched.Placement) int {
			if c := cmp.Compare(a.Proc, b.Proc); c != 0 {
				return c
			}
			return cmp.Compare(a.Start, b.Start)
		})
	}
	start := at + len(scheduleKey)
	out := make([]byte, 0, len(body)+8*len(pls))
	out = append(out, body[:start]...)
	for i, pl := range pls {
		if i == 0 {
			out = append(out, `[{"task":`...)
		} else {
			out = append(out, `,{"task":`...)
		}
		out = strconv.AppendInt(out, int64(pl.Task), 10)
		out = append(out, `,"proc":`...)
		out = strconv.AppendInt(out, int64(pl.Proc), 10)
		out = append(out, `,"start":`...)
		out = strconv.AppendInt(out, int64(pl.Start), 10)
		out = append(out, `,"finish":`...)
		out = strconv.AppendInt(out, int64(pl.Finish), 10)
		out = append(out, '}')
	}
	return append(out, "]}"...), nil
}

// parseSchedule parses what follows `,"schedule":` in a cached body. It
// accepts only the compact form json.Marshal writes: null, or an array of
// {"task":…,"proc":…,"start":…,"finish":…} objects whose integers fit
// their types, then the '}' closing the response and nothing after it.
// n sizes the result for a schedule of n tasks.
func parseSchedule(b []byte, n int) ([]sched.Placement, error) {
	if string(b) == "null}" || string(b) == "[]}" {
		return nil, nil
	}
	c := scanner{b: b}
	pls := make([]sched.Placement, 0, n)
	for open := `[{"task":`; ; open = `,{"task":` {
		var pl sched.Placement
		c.lit(open)
		pl.Task = taskgraph.TaskID(c.int(32))
		c.lit(`,"proc":`)
		pl.Proc = platform.Proc(c.int(8))
		c.lit(`,"start":`)
		pl.Start = taskgraph.Time(c.int(64))
		c.lit(`,"finish":`)
		pl.Finish = taskgraph.Time(c.int(64))
		c.lit("}")
		if c.err != nil {
			return nil, c.err
		}
		pls = append(pls, pl)
		if string(b[c.i:]) == "]}" {
			return pls, nil
		}
	}
}

// scanner walks a byte slice for parseSchedule; its first failure sticks.
type scanner struct {
	b   []byte
	i   int
	err error
}

func (c *scanner) lit(s string) {
	if c.err == nil && !bytes.HasPrefix(c.b[c.i:], []byte(s)) {
		c.err = fmt.Errorf("schedule is not in compact form at byte %d", c.i)
	}
	if c.err == nil {
		c.i += len(s)
	}
}

// int reads an integer literal -?(0|[1-9][0-9]*) that fits in bits.
func (c *scanner) int(bits int) int64 {
	if c.err != nil {
		return 0
	}
	start, i := c.i, c.i
	neg := i < len(c.b) && c.b[i] == '-'
	if neg {
		i++
	}
	digits := i
	for i < len(c.b) && '0' <= c.b[i] && c.b[i] <= '9' {
		i++
	}
	if i == digits || c.b[digits] == '0' && i > digits+1 {
		c.err = fmt.Errorf("schedule holds a malformed integer at byte %d", start)
		return 0
	}
	var v int64
	if i-digits > 18 { // may overflow int64: let strconv judge
		var err error
		if v, err = strconv.ParseInt(string(c.b[start:i]), 10, 64); err != nil {
			c.err = fmt.Errorf("schedule integer at byte %d: %w", start, err)
			return 0
		}
	} else {
		for _, d := range c.b[digits:i] {
			v = v*10 + int64(d-'0')
		}
		if neg {
			v = -v
		}
	}
	if bits < 64 {
		if limit := int64(1) << (bits - 1); v < -limit || v >= limit {
			c.err = fmt.Errorf("schedule integer %d at byte %d overflows int%d", v, start, bits)
			return 0
		}
	}
	c.i = i
	return v
}
