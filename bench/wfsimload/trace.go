package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the harness into a layer.
//
// Parent is the span that physically encloses it (0 for an op's root), so
// the spans of an op form a properly nested tree. Under names the layer span
// that contains this work inside the real program: the benchmark may not
// edit the program, so it calls each layer's exported entry point with the
// op's inputs on a twin instance, one after the other, and Under records
// the containment those calls have when wfsimd makes them itself. A layer's
// self time is its span minus the spans that name it in Under.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Under  string `json:"under,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a replay in memory. A nil recorder records
// nothing and takes no timestamps: that replay is the untraced twin whose
// wall time gives the tracing overhead.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int // indexes of open spans
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do runs f inside a span. Spans opened by f nest inside it.
func (r *recorder) do(name, under string, f func()) {
	if r == nil {
		f()
		return
	}
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.spans[r.stack[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i + 1, Parent: parent, Op: r.op, Name: name, Under: under})
	r.stack = append(r.stack, i)
	r.spans[i].Start = int64(time.Since(r.t0))
	f()
	r.spans[i].End = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// root runs one op's calls inside the op's root span.
func (r *recorder) root(f func()) {
	if r != nil {
		r.op++
	}
	r.do("op", "", f)
}

// traceFile is what a traced run writes to bench/out/<workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// checkNesting verifies the physical tree: every span lies inside its
// parent, siblings do not overlap, and the self times of an op's spans
// (duration minus the part covered by children) sum to its root span within
// tolerance. It returns the first violation.
func checkNesting(spans []span, tolerance float64) error {
	byID := make(map[int]*span, len(spans))
	children := map[int][]*span{}
	for i := range spans {
		sp := &spans[i]
		byID[sp.ID] = sp
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	selfSum := map[int]int64{}
	for i := range spans {
		sp := &spans[i]
		if sp.End < sp.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", sp.ID, sp.Name)
		}
		if sp.Parent != 0 {
			p := byID[sp.Parent]
			if p == nil || sp.Start < p.Start || sp.End > p.End || p.Op != sp.Op {
				return fmt.Errorf("span %d (%s) is not inside its parent %d", sp.ID, sp.Name, sp.Parent)
			}
		}
		kids := children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := int64(0)
		for k, c := range kids {
			if k > 0 && c.Start < kids[k-1].End {
				return fmt.Errorf("spans %d and %d overlap under %d", kids[k-1].ID, c.ID, sp.ID)
			}
			covered += c.End - c.Start
		}
		selfSum[sp.Op] += (sp.End - sp.Start) - covered
	}
	for _, root := range children[0] {
		d := root.End - root.Start
		if diff := selfSum[root.Op] - d; float64(abs64(diff)) > tolerance*float64(d) {
			return fmt.Errorf("op %d: self times sum to %d ns, root span is %d ns", root.Op, selfSum[root.Op], d)
		}
	}
	return nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// layerTimes folds the spans into per-op numbers: for every span name, one
// total duration per op that has it, and the same minus the op's spans that
// sit Under that name (the layer's self time). Durations are nanoseconds.
func layerTimes(spans []span) (total, self map[string][]float64) {
	type key struct {
		op   int
		name string
	}
	dur := map[key]float64{}
	under := map[key]float64{}
	var order []key
	for _, sp := range spans {
		if sp.Name == "op" {
			continue
		}
		d := float64(sp.End - sp.Start)
		k := key{sp.Op, sp.Name}
		if _, ok := dur[k]; !ok {
			order = append(order, k)
		}
		dur[k] += d
		if sp.Under != "" {
			under[key{sp.Op, sp.Under}] += d
		}
	}
	total, self = map[string][]float64{}, map[string][]float64{}
	for _, k := range order {
		total[k.name] = append(total[k.name], dur[k])
		self[k.name] = append(self[k.name], dur[k]-under[k])
	}
	return total, self
}
