package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/bigreddata/brace/internal/distrib"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/service"
)

const (
	epiAgents  = 2000
	epiTicks   = 20
	epiEpoch   = 5
	epiClients = 2
	// epiInputs is how many populations the clients cycle through; an
	// oracle run of one costs about 25 ms.
	epiInputs = 8
	// epiHeapEvery and epiHeapSamples place the live-heap samples: at
	// every epiHeapEvery-th completed run, epiHeapSamples times. The
	// manager keeps every finished run's record (about 0.8 MB), so a
	// sample at the end of the run would grow with throughput.
	epiHeapEvery   = 5
	epiHeapSamples = 6
	// epiRefEvery is how often the clients pause for the machine-speed
	// kernel (speedref.go).
	epiRefEvery = time.Second
)

// serviceRun is one client-observed run: Submit, watch until the stream
// ends, verify.
type serviceRun struct {
	submit, first, done time.Time
	status              *service.RunStatus
	res                 *distrib.Result
	frameAt             []time.Time
	frameBytes          []float64
	decode              time.Duration
	failure             string
	op, span            int // the operation's id and its service.run span
}

// submitAndWatch drives one run the way a bracesimd client does, decoding
// the watch stream with StreamDecoder and checking the reconstructed and
// final populations against the oracle.
func submitAndWatch(mgr *service.Manager, in input, tr *tracer, parent, op int) *serviceRun {
	r := &serviceRun{submit: time.Now(), op: op}
	r.span = tr.begin("service.run", parent, op)
	defer func() { tr.end(r.span) }()
	parent = r.span
	st, err := mgr.Submit(service.RunSpec{Scenario: "epidemic", Agents: epiAgents, Seed: in.seed, Ticks: epiTicks, EpochTicks: epiEpoch})
	if err != nil {
		r.failure = fmt.Sprintf("submit: %v", err)
		return r
	}
	sub, err := mgr.Watch(st.ID)
	if err != nil {
		r.failure = fmt.Sprintf("watch: %v", err)
		return r
	}
	var dec service.StreamDecoder
	var state []*engine.Envelope
	var lastTick uint64
	apply := func(f *service.ObsFrame) {
		at := time.Now()
		if r.first.IsZero() {
			r.first = at
		}
		r.frameAt = append(r.frameAt, at)
		r.frameBytes = append(r.frameBytes, float64(len(f.Data)))
		var err error
		r.decode += tr.timed("service.decode", parent, op, func() { state, err = dec.Apply(f) })
		if err != nil && r.failure == "" {
			r.failure = fmt.Sprintf("watch stream: %v", err)
		}
		lastTick = f.Tick
	}
	for _, f := range sub.Backlog {
		apply(f)
	}
	for f := range sub.Live {
		apply(f)
	}
	r.done = time.Now()
	if r.failure != "" {
		return r
	}
	switch {
	case sub.Lost():
		r.failure = "watch subscriber dropped"
		return r
	case len(r.frameAt) == 0 || dec.Seq() != uint64(len(r.frameAt)):
		r.failure = fmt.Sprintf("watch stream: %d frames decoded up to seq %d", len(r.frameAt), dec.Seq())
		return r
	}
	if r.status, err = mgr.Get(st.ID); err != nil {
		r.failure = err.Error()
		return r
	}
	if r.status.State != service.StateDone {
		r.failure = fmt.Sprintf("run %s ended %s: %s", st.ID, r.status.State, r.status.Error)
		return r
	}
	if r.res, err = mgr.Result(st.ID); err != nil || r.res == nil {
		r.failure = fmt.Sprintf("run %s: no result (%v)", st.ID, err)
		return r
	}
	var got, streamed uint64
	tr.timed("bench.digest", parent, op, func() { got, streamed = digest(r.res.Agents), envDigest(state) })
	switch {
	case got != in.or.digest:
		r.failure = fmt.Sprintf("run %s: digest %016x, oracle %016x", st.ID, got, in.or.digest)
	case lastTick == epiTicks && streamed != in.or.digest:
		r.failure = fmt.Sprintf("run %s: watch-stream state at tick %d %016x, oracle %016x", st.ID, lastTick, streamed, in.or.digest)
	}
	return r
}

// epidemicPass runs closed-loop clients until the budget is spent; every
// client finishes the run it has in flight.
func epidemicPass(cfg runConfig, mgr *service.Manager, inputs []input, budget time.Duration, tr *tracer) (*passStats, []*serviceRun) {
	p := &passStats{ref: speedRef{wake: true}}
	root := tr.begin("bench.workload", -1, 0)
	defer tr.end(root)
	var (
		mu   sync.Mutex
		runs []*serviceRun
		wg   sync.WaitGroup
		// gate pauses the clients between runs while the machine-speed
		// kernel runs: each run holds it shared, the kernel exclusively.
		gate sync.RWMutex
	)
	a0 := totalAlloc()
	deadline := time.Now().Add(budget)
	for c := 0; c < epiClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				op := c + epiClients*i
				in := inputs[op%len(inputs)]
				gate.RLock()
				r := submitAndWatch(mgr, in, tr, root, op)
				gate.RUnlock()
				mu.Lock()
				p.attempted++
				if r.failure != "" {
					p.fail(cfg, "%s", r.failure)
				} else {
					runs = append(runs, r)
					p.agentTicks += in.or.agentTicks
					p.setup = append(p.setup, r.first.Sub(r.submit).Seconds())
					t := r.done.Sub(r.submit).Seconds()
					p.runs = append(p.runs, t)
					// Each client submits again as soon as a run ends, so
					// the service completes epiClients runs per run time.
					p.rates = append(p.rates, epiClients*float64(in.or.agentTicks)/t)
				}
				sample := r.failure == "" && len(runs)%epiHeapEvery == 0 && len(runs) <= epiHeapEvery*epiHeapSamples
				mu.Unlock()
				if sample {
					// Sample between runs: the other client's run ends
					// first, so what the GC keeps does not depend on how
					// far that run had got.
					gate.Lock()
					h := liveHeapMB()
					gate.Unlock()
					mu.Lock()
					p.heapMB = append(p.heapMB, h)
					mu.Unlock()
				}
			}
		}(c)
	}
	clients := make(chan struct{})
	go func() { wg.Wait(); close(clients) }()
	tick := time.NewTicker(epiRefEvery)
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-clients:
			running = false
		case <-tick.C:
			gate.Lock()
			p.ref.sample()
			p.ref.sample()
			gate.Unlock()
		}
	}
	p.allocBytes = totalAlloc() - a0
	if len(p.heapMB) == 0 {
		p.heapMB = append(p.heapMB, liveHeapMB())
	}
	for _, r := range runs {
		if r.status.StartedAt != nil {
			tr.record("service.queue", r.status.SubmittedAt, *r.status.StartedAt, r.span, r.op)
			tr.record("distrib.setup", *r.status.StartedAt, r.first, r.span, r.op)
		}
		p.ticks += int64(r.res.Ticks)
		p.net.SentMsgs += r.res.Net.SentMsgs
		p.net.SentBytes += r.res.Net.SentBytes
		p.relayed += r.res.RelayedDataFrames
	}
	return p, runs
}

func runEpidemicService(cfg runConfig) (*result, error) {
	inputs, err := makeInputs("epidemic", epiAgents, cfg.seed, epiInputs, epiTicks, cfg.trace)
	if err != nil {
		return nil, err
	}
	d, err := startDaemons(loopbackDaemons)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	mgr, err := service.NewManager(service.Config{WorkerAddrs: d.addrs})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		p, _ := epidemicPass(cfg, mgr, inputs, budget, nil)
		return p.result(), nil
	}
	untraced, _ := epidemicPass(cfg, mgr, inputs, budget/2, nil)
	tr := newTracer()
	traced, runs := epidemicPass(cfg, mgr, inputs, budget/2, tr)
	if len(runs) == 0 {
		return nil, fmt.Errorf("traced pass completed no run")
	}

	m := layerMap()
	rep := tr.begin("bench.replay", -1, 0)
	in := inputs[0]
	eng, err := replayEngine(tr, rep, "epidemic", epiAgents, in.seed, loopbackDaemons, epiEpoch, epiTicks, epiEpoch)
	if err != nil {
		return nil, err
	}
	if eng.digest != in.or.digest {
		traced.fail(cfg, "engine replay digest %016x, oracle %016x", eng.digest, in.or.digest)
	}
	if err := commonReplays(tr, rep, "epidemic", epiEpoch, in.or, eng, m); err != nil {
		return nil, err
	}
	tr.end(rep)

	var queue, toFirst, afterFirst, spacing, frameBytes, decodeMs []float64
	var frames, ckptBytes, epochs, fullParts, deltaParts float64
	for _, r := range runs {
		st := r.status
		if st.StartedAt != nil {
			queue = append(queue, ms(st.StartedAt.Sub(st.SubmittedAt)))
			toFirst = append(toFirst, ms(r.first.Sub(*st.StartedAt)))
		}
		afterFirst = append(afterFirst, ms(r.done.Sub(r.first)))
		for i := 1; i < len(r.frameAt); i++ {
			spacing = append(spacing, ms(r.frameAt[i].Sub(r.frameAt[i-1])))
		}
		frameBytes = append(frameBytes, r.frameBytes...)
		decodeMs = append(decodeMs, ms(r.decode))
		frames += float64(len(r.frameAt))
		ckptBytes += float64(r.res.CheckpointBytes)
		epochs += float64(len(r.res.Epochs))
		fullParts += float64(r.res.CheckpointFullParts)
		deltaParts += float64(r.res.CheckpointDeltaParts)
	}
	n := float64(len(runs))
	ticks := float64(max(traced.ticks, 1))
	epoch := median(spacing)
	setOverhead(untraced, traced, m)
	m["transport.frames_per_tick"] = metric{float64(traced.net.SentMsgs) / ticks, "count"}
	m["transport.wire_bytes_per_tick"] = metric{float64(traced.net.SentBytes) / ticks, "B"}
	m["distrib.epoch_ms_p50"] = metric{epoch, "ms"}
	m["distrib.wire_overhead_ms_per_epoch"] = metric{epoch - median(eng.stepMs), "ms"}
	m["distrib.relayed_frames"] = metric{float64(traced.relayed) / n, "count"}
	m["distrib.checkpoint_bytes_per_epoch"] = metric{ckptBytes / max(epochs, 1), "B"}
	m["distrib.ckpt_delta_parts_ratio"] = metric{deltaParts / max(fullParts+deltaParts, 1), "ratio"}
	m["service.queue_wait_ms_p50"] = metric{median(queue), "ms"}
	m["service.start_to_first_frame_ms_p50"] = metric{median(toFirst), "ms"}
	m["service.frames_per_run"] = metric{frames / n, "count"}
	m["service.frame_bytes_p50"] = metric{median(frameBytes), "B"}
	m["service.decode_us_per_frame"] = metric{1e3 * sum(decodeMs) / max(frames, 1), "us"}

	compute := sum(eng.stepMs)
	encode := frames / n * epiAgents * m["engine.delta_encode_ns_per_agent"].Value / 1e6
	rows := []breakdownRow{
		{"Submit -> done (p50)", 1e3 * median(traced.runs), "span"},
		{"  queue wait (p50)", median(queue), "span"},
		{"  start -> first frame: dial, handshake, rebuild (p50)", median(toFirst), "span"},
		{"  first frame -> done (p50)", median(afterFirst), "span"},
		{"    in-process compute, 20 ticks on 2 partitions", compute, "replay"},
		{"    watch-stream delta encode", encode, "replay"},
		{"    distrib+transport: barriers, checkpoints, wire", median(afterFirst) - compute - encode, "rest"},
		{"client stream decode per run (concurrent)", median(decodeMs), "span"},
	}
	tr.emit(cfg, "epidemic-service", "run", rows, m)
	return tracedResult(untraced, traced, m), nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
