package main

import (
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/service"
)

// shortPass runs one short untraced pass of a workload on the given inputs.
func shortPass(t *testing.T, workload string, inputs []input) *passStats {
	t.Helper()
	cfg := runConfig{out: io.Discard}
	budget := 300 * time.Millisecond
	switch workload {
	case "fish-inproc":
		return fishInprocPass(cfg, inputs, budget, nil)
	case "fish-loopback":
		d, err := startDaemons(loopbackDaemons)
		if err != nil {
			t.Fatal(err)
		}
		defer d.stop()
		return fishLoopbackPass(cfg, d, inputs, budget, nil)
	case "epidemic-service":
		d, err := startDaemons(loopbackDaemons)
		if err != nil {
			t.Fatal(err)
		}
		defer d.stop()
		mgr, err := service.NewManager(service.Config{WorkerAddrs: d.addrs})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		p, _ := epidemicPass(cfg, mgr, inputs, budget, nil)
		return p
	}
	t.Fatalf("unknown workload %q", workload)
	return nil
}

// testInputs builds two populations of a workload's scenario.
func testInputs(t *testing.T, workload string, seed uint64) []input {
	t.Helper()
	var in []input
	var err error
	if workload == "epidemic-service" {
		in, err = makeInputs("epidemic", epiAgents, seed, 2, epiTicks, false)
	} else {
		in, err = makeInputs("fish", fishAgents, seed, 2, fishEpisode, false)
	}
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode keeps BENCHMARK.json and the program in step: the
// same workloads, every end-to-end metric a result prints, every per-layer
// metric a traced run prints, and bounds tight enough that a 20% loss is
// always a regression.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadTestSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	res := newResult()
	(&passStats{}).endToEnd(res)
	if len(spec.EndToEnd) != len(res.Metrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, a result has %d", len(spec.EndToEnd), len(res.Metrics))
	}
	for _, m := range spec.EndToEnd {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("end-to-end metric %s is never reported", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: unit %q in BENCHMARK.json, %q reported", m.Name, m.Unit, got.Unit)
		case m.Bound <= 0 || m.Bound >= 0.2:
			t.Errorf("%s: bound %v does not flag a 20%% loss", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code has %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}

// TestGateFlagsTwentyPercentLoss doctors a real result of every workload
// to be 20% worse on one end-to-end metric at a time; the gate must flag
// each, and only that metric.
func TestGateFlagsTwentyPercentLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadTestSpec(t)
	for _, w := range workloads {
		p := shortPass(t, w.name, testInputs(t, w.name, 1))
		base := p.result()
		if !base.Correct || base.Failed != 0 {
			t.Fatalf("%s: base run failed %d/%d", w.name, base.Failed, base.Attempted)
		}
		if regs := regressions(spec, []*result{base}, []*result{base}); len(regs) != 0 {
			t.Errorf("%s: a result regresses against itself: %v", w.name, regs)
		}
		for _, m := range spec.EndToEnd {
			cand := newResult()
			*cand = *base
			cand.Metrics = make(map[string]metric)
			for k, v := range base.Metrics {
				cand.Metrics[k] = v
			}
			v := cand.Metrics[m.Name]
			if m.Better == "higher" {
				v.Value *= 0.8
			} else {
				v.Value *= 1.2
			}
			cand.Metrics[m.Name] = v
			regs := regressions(spec, []*result{base}, []*result{cand})
			if len(regs) != 1 || !strings.HasPrefix(regs[0], m.Name+":") {
				t.Errorf("%s: 20%% worse %s gave %v", w.name, m.Name, regs)
			}
		}
	}
}

// TestDoctoredDigestIsAFailure corrupts the oracle digests: every attempted
// operation of every workload must then count as failed.
func TestDoctoredDigestIsAFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadTestSpec(t)
	for _, w := range workloads {
		in := testInputs(t, w.name, 1)
		for i := range in {
			in[i].or.digest ^= 1
		}
		p := shortPass(t, w.name, in)
		res := p.result()
		if res.Attempted == 0 || res.Failed != res.Attempted || res.Correct {
			t.Errorf("%s: doctored digests gave correct=%v failed=%d/%d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		if len(regressions(spec, []*result{res}, []*result{res})) == 0 {
			t.Errorf("%s: the gate passed a failed run", w.name)
		}
	}
}

// TestSeedChangesInputsNotOutcome runs every workload at two benchmark
// seeds: the generated populations differ, both runs pass, and the same
// seed gives the same inputs again.
func TestSeedChangesInputsNotOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		a, b, again := testInputs(t, w.name, 1), testInputs(t, w.name, 2), testInputs(t, w.name, 1)
		for i := range a {
			if a[i].seed == b[i].seed || a[i].or.digest == b[i].or.digest {
				t.Errorf("%s: input %d identical under seeds 1 and 2", w.name, i)
			}
			if a[i].seed != again[i].seed || a[i].or.digest != again[i].or.digest {
				t.Errorf("%s: input %d differs between two runs of seed 1", w.name, i)
			}
		}
		for _, in := range [][]input{a, b} {
			if res := shortPass(t, w.name, in).result(); !res.Correct || res.Failed != 0 {
				t.Errorf("%s: seed %d failed %d/%d", w.name, in[0].seed, res.Failed, res.Attempted)
			}
		}
	}
}

// TestDigestSeesEveryStateBit checks the digest covers IDs and state bits.
func TestDigestSeesEveryStateBit(t *testing.T) {
	or, err := runOracle("fish", 50, 9, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	last := or.snaps[len(or.snaps)-1]
	d0 := envDigest(last)
	if d0 != or.digest {
		t.Fatalf("snapshot digest %016x, oracle %016x", d0, or.digest)
	}
	last[7].A.State[0] = math.Nextafter(last[7].A.State[0], math.Inf(1))
	if envDigest(last) == d0 {
		t.Error("digest ignored a one-ulp state change")
	}
	last[7].A.ID++
	if envDigest(last) == d0 {
		t.Error("digest ignored an ID change")
	}
}

func TestQuantileAndSelfTime(t *testing.T) {
	if q := quantile([]float64{4, 1, 3, 2}, 0.5); q != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", q)
	}
	if c := covered([][2]int64{{0, 10}, {5, 15}, {20, 25}}); c != 20 {
		t.Errorf("covered = %d, want 20", c)
	}
	tr := newTracer()
	t0 := tr.t0
	root := tr.record("bench.workload", t0, t0.Add(100), -1, 0)
	step := tr.record("engine.step", t0.Add(10), t0.Add(90), root, 0)
	tr.record("spatial.probe", t0.Add(20), t0.Add(50), step, 0)
	self := tr.selfTimes("bench.workload")
	if self["bench"] != 20 || self["engine"] != 50 || self["spatial"] != 30 {
		t.Errorf("self times %v, want bench 20 engine 50 spatial 30", self)
	}
}

// TestSlowdownScalesTimedMetrics checks the machine-speed factor: 1 with
// no samples, a trimmed mean of the kernel times over their nominal time,
// and applied to throughput and times but not to the memory metrics. Both
// kernels must run.
func TestSlowdownScalesTimedMetrics(t *testing.T) {
	p := &passStats{rates: []float64{1000}, setup: []float64{0.01}, runs: []float64{0.5}, allocBytes: 100, agentTicks: 10, heapMB: []float64{3}}
	if s := p.ref.slowdown(); s != 1 {
		t.Errorf("slowdown with no samples = %v, want 1", s)
	}
	// Ten samples: the fastest and the slowest are dropped.
	for _, x := range []float64{0.1, 2, 2, 2, 2, 2, 2, 2, 2, 50} {
		p.ref.samples = append(p.ref.samples, x)
	}
	if s := p.ref.slowdown(); math.Abs(s-2) > 1e-12 {
		t.Fatalf("slowdown = %v, want 2", s)
	}
	res := newResult()
	p.endToEnd(res)
	want := map[string]float64{
		"agent_ticks_per_s": 2000, "setup_s": 0.005, "run_s_p50": 0.25, "run_s_p90": 0.25,
		"alloc_bytes_per_agent_tick": 10, "live_heap_mb": 3,
	}
	for name, v := range want {
		if got := res.Metrics[name].Value; math.Abs(got-v) > 1e-9*v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	for _, wake := range []bool{false, true} {
		r := speedRef{wake: wake}
		r.sample()
		if len(r.samples) != 1 || r.samples[0] <= 0 {
			t.Errorf("wake=%v: sample() recorded %v", wake, r.samples)
		}
	}
}

// TestTracedRunReportsEveryLayer runs each workload traced, briefly, and
// checks that every per-layer metric that applies to it was measured.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	common := []string{
		"spatial.kd_build_ns_per_agent", "spatial.list_build_ns_per_agent", "spatial.probe_ns_per_agent",
		"spatial.candidates_per_agent", "spatial.hit_ratio", "engine.list_reuse_ratio",
		"engine.oracle_list_reuse_ratio", "engine.oracle_agent_ticks_per_s", "engine.vs_oracle",
		"engine.overlap_s_per_tick", "engine.delta_encode_ns_per_agent", "engine.delta_apply_ns_per_agent",
		"engine.delta_bytes_per_agent", "mapreduce.msgs_per_tick", "mapreduce.local_bytes_per_tick",
		"mapreduce.net_bytes_per_tick", "transport.roundtrip_us_per_frame", "transport.bytes_per_envelope",
		"transport.allocs_per_frame", "trace.overhead_frac",
	}
	wire := []string{"transport.frames_per_tick", "transport.wire_bytes_per_tick", "distrib.epoch_ms_p50"}
	only := map[string][]string{
		"fish-inproc":   {"engine.step_ms", "engine.observe_ms", "scenario.build_ms", "engine.construct_ms"},
		"fish-loopback": wire,
		"epidemic-service": append(wire, "distrib.relayed_frames", "distrib.checkpoint_bytes_per_epoch",
			"distrib.ckpt_delta_parts_ratio", "service.queue_wait_ms_p50", "service.start_to_first_frame_ms_p50",
			"service.frames_per_run", "service.frame_bytes_p50", "service.decode_us_per_frame"),
	}
	for _, w := range workloads {
		var out strings.Builder
		res, err := w.run(runConfig{seed: 5, seconds: 0.6, trace: true, out: &out, traceDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(perLayerMetrics) {
			t.Errorf("%s: correct=%v failed=%d metrics=%d", w.name, res.Correct, res.Failed, len(res.Metrics))
		}
		for _, name := range append(append([]string(nil), common...), only[w.name]...) {
			if res.Metrics[name].Value == 0 {
				t.Errorf("%s: %s not measured", w.name, name)
			}
		}
		for _, want := range []string{"self time by layer", "where a "} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: traced output lacks %q", w.name, want)
			}
		}
	}
}
