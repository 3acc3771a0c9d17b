package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/bigreddata/brace/internal/cluster"
)

// passStats accumulates one measured pass of a workload.
type passStats struct {
	agentTicks int64 // simulation work completed and verified
	// rates are per-operation agent-ticks/s of verified work; throughput
	// is their median, which one slow stretch of a shared box cannot drag
	// the way it drags an aggregate.
	rates      []float64
	setup      []float64 // seconds, one per set-up
	runs       []float64 // seconds, one per operation the user waits on
	allocBytes uint64    // TotalAlloc over the steady-state regions
	heapMB     []float64 // live-heap samples
	attempted  int
	failed     int
	ref        speedRef // machine-speed samples taken between operations

	// Counters the traced run reports per layer.
	stepMs, observeMs float64             // fish-inproc: median Run(20) and Agents() spans
	ticks             int64               // ticks completed over the wire
	net               cluster.NodeMetrics // wire traffic (Result.Net)
	relayed           int64               // data frames relayed by a coordinator
}

// fail counts one failed operation and says why.
func (p *passStats) fail(cfg runConfig, format string, args ...any) {
	p.failed++
	fmt.Fprintf(cfg.out, "# FAIL: "+format+"\n", args...)
}

// result is the untraced pass's result line.
func (p *passStats) result() *result {
	res := newResult()
	res.Attempted, res.Failed = p.attempted, p.failed
	res.Correct = p.failed == 0 && p.attempted > 0
	p.endToEnd(res)
	return res
}

// throughput is the median per-operation rate as measured, before the
// machine-speed scaling.
func (p *passStats) throughput() float64 { return median(p.rates) }

// endToEnd writes the end-to-end metrics of a pass into res. Throughput
// and every time are scaled to the reference box's speed (speedref.go).
func (p *passStats) endToEnd(res *result) {
	slow := p.ref.slowdown()
	res.slowdown = slow
	res.set("agent_ticks_per_s", p.throughput()*slow, "agent-ticks/s")
	res.set("setup_s", median(p.setup)/slow, "s")
	res.set("run_s_p50", quantile(p.runs, 0.5)/slow, "s")
	res.set("run_s_p90", quantile(p.runs, 0.9)/slow, "s")
	res.set("alloc_bytes_per_agent_tick", float64(p.allocBytes)/float64(max(p.agentTicks, 1)), "B")
	res.set("live_heap_mb", median(p.heapMB), "MB")
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// caller keeps the simulation referenced across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// perLayerMetrics is every per-layer metric a traced run reports, in
// BENCHMARK.json order. A layer a workload does not exercise reports 0
// (see NOTES.md for which metric applies where).
var perLayerMetrics = []struct{ name, unit string }{
	{"spatial.kd_build_ns_per_agent", "ns"},
	{"spatial.list_build_ns_per_agent", "ns"},
	{"spatial.probe_ns_per_agent", "ns"},
	{"spatial.candidates_per_agent", "count"},
	{"spatial.hit_ratio", "ratio"},
	{"engine.list_reuse_ratio", "ratio"},
	{"engine.oracle_list_reuse_ratio", "ratio"},
	{"engine.step_ms", "ms"},
	{"engine.observe_ms", "ms"},
	{"engine.oracle_agent_ticks_per_s", "agent-ticks/s"},
	{"engine.vs_oracle", "ratio"},
	{"engine.overlap_s_per_tick", "s"},
	{"engine.delta_encode_ns_per_agent", "ns"},
	{"engine.delta_apply_ns_per_agent", "ns"},
	{"engine.delta_bytes_per_agent", "B"},
	{"scenario.build_ms", "ms"},
	{"engine.construct_ms", "ms"},
	{"mapreduce.msgs_per_tick", "count"},
	{"mapreduce.local_bytes_per_tick", "B"},
	{"mapreduce.net_bytes_per_tick", "B"},
	{"transport.frames_per_tick", "count"},
	{"transport.wire_bytes_per_tick", "B"},
	{"transport.roundtrip_us_per_frame", "us"},
	{"transport.bytes_per_envelope", "B"},
	{"transport.allocs_per_frame", "count"},
	{"distrib.epoch_ms_p50", "ms"},
	{"distrib.wire_overhead_ms_per_epoch", "ms"},
	{"distrib.relayed_frames", "count"},
	{"distrib.checkpoint_bytes_per_epoch", "B"},
	{"distrib.ckpt_delta_parts_ratio", "ratio"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.start_to_first_frame_ms_p50", "ms"},
	{"service.frames_per_run", "count"},
	{"service.frame_bytes_p50", "B"},
	{"service.decode_us_per_frame", "us"},
	{"trace.overhead_frac", "ratio"},
}

// layerMap returns a per-layer metric map with every metric present at 0.
func layerMap() map[string]metric {
	m := make(map[string]metric, len(perLayerMetrics))
	for _, pl := range perLayerMetrics {
		m[pl.name] = metric{0, pl.unit}
	}
	return m
}

// tracedResult turns a traced run's layer map into its result line, with
// the tracing overhead: the traced pass's throughput loss against the
// untraced pass of the same run.
func tracedResult(untraced, traced *passStats, layers map[string]metric) *result {
	res := newResult()
	res.slowdown = untraced.ref.slowdown()
	res.Attempted = untraced.attempted + traced.attempted
	res.Failed = untraced.failed + traced.failed
	res.Correct = res.Failed == 0
	res.Metrics = layers
	return res
}

// setOverhead records trace.overhead_frac and engine.vs_oracle, which
// compare the untraced pass with the traced pass and the oracle.
func setOverhead(untraced, traced *passStats, m map[string]metric) {
	u := untraced.throughput()
	if u > 0 {
		m["trace.overhead_frac"] = metric{1 - traced.throughput()/u, "ratio"}
	}
	if o := m["engine.oracle_agent_ticks_per_s"].Value; o > 0 {
		m["engine.vs_oracle"] = metric{u / o, "ratio"}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
