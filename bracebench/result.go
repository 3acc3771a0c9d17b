package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one named measurement in a result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// slowdown is the machine-speed factor the timed metrics were scaled
	// by (speedref.go); it goes on the # line, not into the result.
	slowdown float64
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) failedFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// regressions compares candidate runs against base runs of one workload:
// every end-to-end metric whose candidate median is worse than the base
// median by more than its bound is reported, and so is any failed or
// incorrect candidate run.
func regressions(spec *benchSpec, base, cand []*result) []string {
	var out []string
	for i, c := range cand {
		if !c.Correct || c.Failed > 0 {
			out = append(out, fmt.Sprintf("candidate run %d: correct=%v failed=%d/%d", i, c.Correct, c.Failed, c.Attempted))
		}
	}
	for _, m := range spec.EndToEnd {
		b, okb := metricSample(base, m.Name)
		c, okc := metricSample(cand, m.Name)
		if !okb || !okc {
			out = append(out, fmt.Sprintf("%s: missing from base or candidate", m.Name))
			continue
		}
		mb, mc := median(b), median(c)
		var worse float64 // relative loss, positive when the candidate is worse
		if m.Better == "higher" {
			worse = (mb - mc) / mb
		} else {
			worse = (mc - mb) / mb
		}
		if worse > m.Bound {
			out = append(out, fmt.Sprintf("%s: %.4g -> %.4g %s (%.1f%% worse, bound %.0f%%)",
				m.Name, mb, mc, m.Unit, 100*worse, 100*m.Bound))
		}
	}
	return out
}

func metricSample(rs []*result, name string) ([]float64, bool) {
	var xs []float64
	for _, r := range rs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		xs = append(xs, m.Value)
	}
	return xs, len(xs) > 0
}

// readResults reads every result line (a JSON object with a "metrics" key)
// from a file of benchmark output, skipping everything else.
func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") || !strings.Contains(line, `"metrics"`) {
			continue
		}
		r := newResult()
		if err := json.Unmarshal([]byte(line), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain implements "bracebench compare <workload> <base> <cand>".
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 3 {
		fmt.Fprintln(stdout, "usage: bracebench compare <workload> <base.jsonl> <cand.jsonl>")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stdout, "bracebench:", err)
		return 2
	}
	base, err := readResults(args[1])
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("%s: no result lines", args[1])
	}
	if err != nil {
		fmt.Fprintln(stdout, "bracebench:", err)
		return 2
	}
	cand, err := readResults(args[2])
	if err == nil && len(cand) == 0 {
		err = fmt.Errorf("%s: no result lines", args[2])
	}
	if err != nil {
		fmt.Fprintln(stdout, "bracebench:", err)
		return 2
	}
	regs := regressions(spec, base, cand)
	for _, r := range regs {
		fmt.Fprintf(stdout, "%s: REGRESSION %s\n", args[0], r)
	}
	if len(regs) > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d base vs %d candidate runs within bounds\n", args[0], len(base), len(cand))
	return 0
}
