package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one interval of the traced run around a call the benchmark
// makes: a workload's whole loop, a scenario's experiment.Run, and the
// post-check read-out inside it. Spans stay in memory until the run ends.
type span struct {
	Name   string
	ID     int
	Parent int // 0 for a root span
	Lane   int // worker lane, for display
	Start  time.Time
	End    time.Time
}

type tracer struct {
	t0    time.Time
	spans []span
	next  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reserve returns a fresh span ID, so children can name a parent whose
// interval is only known later.
func (t *tracer) reserve() int {
	t.next++
	return t.next
}

func (t *tracer) add(s span) { t.spans = append(t.spans, s) }

// spanStat is the per-name total and self time of a traced run; self time
// is a span's duration minus the union of its children's intervals.
type spanStat struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

func (t *tracer) stats() []spanStat {
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	byName := map[string]*spanStat{}
	var order []string
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		d := s.End.Sub(s.Start)
		st.Count++
		st.TotalMs += ms(d)
		st.SelfMs += ms(d - covered(s, children[s.ID]))
	}
	out := make([]spanStat, len(order))
	for i, n := range order {
		out[i] = *byName[n]
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := append([]span(nil), kids...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start.Before(iv[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	open := false
	for _, k := range iv {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		if open && !s.After(curE) {
			if e.After(curE) {
				curE = e
			}
			continue
		}
		if open {
			total += curE.Sub(curS)
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE.Sub(curS)
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing, with meta as its otherData.
func (t *tracer) writeChrome(w io.Writer, meta map[string]string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.Name, Cat: "simbench", Ph: "X",
			Ts:  float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "otherData": meta})
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
