package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: Name is "<layer>.<operation>",
// Parent is the span that caused it (0 for a root). Start and End are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the untraced code path pays
// one nil check per boundary.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; end records it.
type active struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

func (t *tracer) start(parent int64, name string) active {
	if t == nil {
		return active{}
	}
	return active{t: t, id: t.next.Add(1), parent: parent, name: name, start: time.Now()}
}

func (a active) end() {
	if a.t == nil {
		return
	}
	end := time.Now()
	s := span{ID: a.id, Parent: a.parent, Name: a.name,
		Start: int64(a.start.Sub(a.t.epoch)), End: int64(end.Sub(a.t.epoch))}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
}

// snapshot returns the recorded spans sorted by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID // a parent's ID precedes its children's
	})
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children are clipped to the parent
// and overlapping children are merged, so concurrent children never make a
// self time negative.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// tree is the spans of one root and everything below it, each clipped to
// its parent's interval, with their self times.
type tree struct {
	root  span
	spans []span // root first
	self  map[int64]time.Duration
}

// forest collects every root named rootName with its descendants, one
// tree per root, in start order. A child that outlives its parent (a
// handler span closes just after the client already has the response) is
// clipped to the parent, so the self times of a tree whose siblings never
// overlap sum exactly to the root's wall time.
func forest(spans []span, rootName string) []tree {
	var out []tree
	clipped := map[int64]span{}
	treeOf := map[int64]int{}
	// spans are sorted by start, parents before children, so one pass sees
	// every parent before its children.
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Name == rootName {
				clipped[s.ID], treeOf[s.ID] = s, len(out)
				out = append(out, tree{root: s, spans: []span{s}})
			}
			continue
		}
		p, ok := clipped[s.Parent]
		if !ok {
			continue
		}
		s.Start = min(max(s.Start, p.Start), p.End)
		s.End = max(min(s.End, p.End), s.Start)
		clipped[s.ID], treeOf[s.ID] = s, treeOf[s.Parent]
		t := &out[treeOf[s.ID]]
		t.spans = append(t.spans, s)
	}
	for i := range out {
		out[i].self = selfTimes(out[i].spans)
	}
	return out
}

// selfByName sums self time per span name over the tree.
func (t tree) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += t.self[s.ID]
	}
	return out
}

// accounting checks that the tree's self times sum to the root's wall time
// (which holds when siblings never overlap) and returns the remainder the
// root keeps for itself: time inside the phase that no layer span covers.
func (t tree) accounting() (wall, unattributed, sum time.Duration) {
	for _, s := range t.spans {
		sum += t.self[s.ID]
	}
	return t.root.dur(), t.self[t.root.ID], sum
}

func secs(d time.Duration) float64 { return d.Seconds() }

func fmtTree(t tree) string {
	byName := t.selfByName()
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	wall, un, sum := t.accounting()
	s := fmt.Sprintf("%s: wall %.4fs, self-time sum %.4fs, unattributed %.4fs\n", t.root.Name, secs(wall), secs(sum), secs(un))
	for _, n := range names {
		s += fmt.Sprintf("  %-28s %10.4fs\n", n, secs(byName[n]))
	}
	return s
}
