package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a benchmark call into a
// public entry point, or a part of one that the API reports (a
// request's queue wait).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	Req    int64  `json:"req"`    // request id, -1 when not request-scoped
}

// spanLog keeps spans in memory; they are written out once, at exit.
// Times are offsets from base, the start of the traced phase.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index for use as a parent. A nil
// log records nothing.
func (l *spanLog) add(name string, start, end time.Time, parent int32, req int64) int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Name: name, Start: int64(start.Sub(l.base)), End: int64(end.Sub(l.base)),
		Parent: parent, Req: req,
	})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// layerTime is one span name's aggregate.
type layerTime struct {
	name   string
	count  int
	selfNs int64
	durs   []float64 // per-span self times, ns
}

// selfTimes derives each span name's self time: its duration minus the
// durations of its direct children.
func (l *spanLog) selfTimes() []layerTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerTime{}
	var order []string
	for i, s := range l.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		self := s.End - s.Start - child[i]
		lt.count++
		lt.selfNs += self
		lt.durs = append(lt.durs, float64(self))
	}
	sort.Strings(order)
	out := make([]layerTime, len(order))
	for i, n := range order {
		out[i] = *byName[n]
	}
	return out
}

// selfOf returns one span name's aggregate (zero when absent).
func selfOf(lts []layerTime, name string) layerTime {
	for _, lt := range lts {
		if lt.name == name {
			return lt
		}
	}
	return layerTime{name: name}
}

// writeJSONL writes a header line and then one span per line.
func (l *spanLog) writeJSONL(w io.Writer, header any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	return bw.Flush()
}
