package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. A span's layer is
// its name up to the first dot ("spatial.kd_build" → spatial).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int    `json:"op"`     // operation (episode, run) the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose start and end were taken by the caller.
func (t *tracer) record(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent, op int, fn func()) time.Duration {
	id := t.begin(name, parent, op)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, every span's duration minus the part of it
// its child spans cover, over the spans under the root named root.
func (t *tracer) selfTimes(root string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	var walk func(i int)
	walk = func(i int) {
		s := t.spans[i]
		var iv [][2]int64
		for _, c := range children[i] {
			cs := t.spans[c]
			iv = append(iv, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
			walk(c)
		}
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered(iv))
	}
	for i, s := range t.spans {
		if s.Parent < 0 && s.Name == root {
			walk(i)
		}
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if open && v[0] <= curE {
			curE = max(curE, v[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = v[0], v[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// breakdownRow is one line of a "where a tick/run goes" table.
type breakdownRow struct {
	Part   string  `json:"part"`
	Ms     float64 `json:"ms"`
	Source string  `json:"source"` // span (measured), replay (estimated) or rest (difference)
}

// traceReport is what a traced run writes out and prints.
type traceReport struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Unit      string             `json:"breakdown_unit"` // "tick" or "run"
	Breakdown []breakdownRow     `json:"breakdown"`
	SelfMs    map[string]float64 `json:"self_ms_by_layer"`
	Layers    map[string]metric  `json:"per_layer"`
	Spans     []span             `json:"spans"`
}

// emit prints the per-layer table and the breakdown, and writes the full
// report (spans included) to dir.
func (t *tracer) emit(cfg runConfig, workload, unit string, rows []breakdownRow, layers map[string]metric) {
	self := make(map[string]float64)
	for l, d := range t.selfTimes("bench.workload") {
		self[l] = float64(d.Microseconds()) / 1e3
	}
	w := cfg.out
	fmt.Fprintf(w, "# %s: per-layer metrics (traced run, seed %d)\n", workload, cfg.seed)
	for _, n := range sortedKeys(layers) {
		fmt.Fprintf(w, "#   %-40s %14.6g %s\n", n, layers[n].Value, layers[n].Unit)
	}
	fmt.Fprintf(w, "# %s: self time by layer over the traced workload pass (ms)\n", workload)
	for _, l := range sortedKeys(self) {
		fmt.Fprintf(w, "#   %-12s %10.1f\n", l, self[l])
	}
	fmt.Fprintf(w, "# %s: where a %s goes (ms per %s)\n", workload, unit, unit)
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-44s %10.3f  %s\n", r.Part, r.Ms, r.Source)
	}
	t.mu.Lock()
	rep := traceReport{workload, cfg.seed, unit, rows, self, layers, append([]span(nil), t.spans...)}
	t.mu.Unlock()
	if err := writeJSON(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", workload, cfg.seed)), rep); err != nil {
		fmt.Fprintf(w, "# trace dump: %v\n", err)
	}
}

// spanMedianMs is the median duration of every span with the given name.
func spanMedianMs(tr *tracer, name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var ds []float64
	for _, s := range tr.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return median(ds)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
