package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/bigreddata/brace"
	"github.com/bigreddata/brace/internal/distrib"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
)

const (
	fishAgents = 2000
	// fishEpisode is the ticks one set-up is run for before its final
	// population is checked and the workload sets up again.
	fishEpisode = 40
	// fishInputs is how many populations a run cycles through.
	fishInputs = 8
	// fishStep is the Run(n) granularity of the library path, with an
	// Agents() observation after every step (as in examples/).
	fishStep = 20
	// fishEpoch is the engines' default epoch length.
	fishEpoch = 10
	// inprocWorkers is the library path's worker count (nproc on the
	// reference box).
	inprocWorkers = 2
	// loopbackDaemons and loopbackParts size the wire path.
	loopbackDaemons = 2
	loopbackParts   = 8
)

// ---- fish-inproc ----

// fishInprocPass runs set-up + fishEpisode ticks episodes of the library
// path until the budget is spent, verifying each against the oracle.
func fishInprocPass(cfg runConfig, inputs []input, budget time.Duration, tr *tracer) *passStats {
	p := &passStats{}
	root := tr.begin("bench.workload", -1, 0)
	defer tr.end(root)
	var steps, observes []float64
	deadline := time.Now().Add(budget)
	for op := 0; time.Now().Before(deadline); op++ {
		p.attempted++
		in := inputs[op%len(inputs)]
		t0 := time.Now()
		sim, err := newFishSim(tr, root, op, in.seed)
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if err != nil {
			p.fail(cfg, "set-up: %v", err)
			continue
		}
		a0 := totalAlloc()
		var runs []float64
		for done := 0; done < fishEpisode && err == nil; done += fishStep {
			t := time.Now()
			d := tr.timed("engine.step", root, op, func() { err = sim.Run(fishStep) })
			o := tr.timed("engine.observe", root, op, func() { _ = sim.Agents() })
			steps, observes = append(steps, ms(d)), append(observes, ms(o))
			runs = append(runs, time.Since(t).Seconds())
			p.ref.sample()
		}
		p.allocBytes += totalAlloc() - a0
		if err != nil {
			p.fail(cfg, "episode %d: %v", op, err)
			continue
		}
		p.heapMB = append(p.heapMB, liveHeapMB())
		var got uint64
		tr.timed("bench.digest", root, op, func() { got = digest(sim.Agents()) })
		if got != in.or.digest {
			p.fail(cfg, "episode %d: digest %016x, oracle %016x", op, got, in.or.digest)
			continue
		}
		p.agentTicks += in.or.agentTicks
		perStep := float64(in.or.agentTicks) / float64(len(runs))
		for _, s := range runs {
			p.runs = append(p.runs, s)
			p.rates = append(p.rates, perStep/s)
		}
	}
	p.stepMs, p.observeMs = median(steps), median(observes)
	return p
}

// newFishSim sets up the library path. Untraced it is one
// brace.NewScenario call; traced, its two halves are timed apart.
func newFishSim(tr *tracer, parent, op int, seed uint64) (*brace.Simulation, error) {
	sc := brace.ScenarioConfig{Agents: fishAgents, Seed: seed}
	bc := brace.Config{Workers: inprocWorkers, Seed: seed}
	if tr == nil {
		return brace.NewScenario("fish", sc, bc)
	}
	setup := tr.begin("brace.setup", parent, op)
	defer tr.end(setup)
	sp, ok := brace.LookupScenario("fish")
	if !ok {
		return nil, brace.ErrUnknownScenario("fish")
	}
	var (
		m   brace.Model
		pop []*brace.Agent
		sim *brace.Simulation
		err error
	)
	tr.timed("scenario.build", setup, op, func() { m, pop, err = sp.New(sc) })
	if err != nil {
		return nil, err
	}
	tr.timed("engine.construct", setup, op, func() { sim, err = brace.New(m, pop, bc) })
	return sim, err
}

func runFishInproc(cfg runConfig) (*result, error) {
	inputs, err := makeInputs("fish", fishAgents, cfg.seed, fishInputs, fishEpisode, cfg.trace)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return fishInprocPass(cfg, inputs, budget, nil).result(), nil
	}
	untraced := fishInprocPass(cfg, inputs, budget/2, nil)
	tr := newTracer()
	traced := fishInprocPass(cfg, inputs, budget/2, tr)
	seed, or := inputs[0].seed, inputs[0].or

	m := layerMap()
	rep := tr.begin("bench.replay", -1, 0)
	eng, err := replayEngine(tr, rep, "fish", fishAgents, seed, inprocWorkers, 0, fishEpisode, fishStep)
	if err != nil {
		return nil, err
	}
	if eng.digest != or.digest {
		traced.fail(cfg, "engine replay digest %016x, oracle %016x", eng.digest, or.digest)
	}
	if err := commonReplays(tr, rep, "fish", fishEpoch, or, eng, m); err != nil {
		return nil, err
	}
	tr.end(rep)
	m["engine.step_ms"] = metric{traced.stepMs, "ms"}
	m["engine.observe_ms"] = metric{traced.observeMs, "ms"}
	m["scenario.build_ms"] = metric{spanMedianMs(tr, "scenario.build"), "ms"}
	m["engine.construct_ms"] = metric{spanMedianMs(tr, "engine.construct"), "ms"}
	setOverhead(untraced, traced, m)

	// Where a tick goes: the step span against the spatial replays'
	// per-agent costs at the engine's observed rebuild rate.
	tick := traced.stepMs / fishStep
	rows := append([]breakdownRow{{"engine.step (Run) per tick", tick, "span"}}, spatialRows("  ", tick, m, fishAgents)...)
	rows = append(rows, []breakdownRow{
		{"engine.observe (Agents) per tick", traced.observeMs / fishStep, "span"},
		{"set-up (scenario.build+engine.construct) per tick", 1e3 * median(traced.setup) / fishEpisode, "span"},
	}...)
	tr.emit(cfg, "fish-inproc", "tick", rows, m)
	return tracedResult(untraced, traced, m), nil
}

// ---- fish-loopback ----

// daemons is a set of in-process worker daemons on loopback listeners.
type daemons struct {
	addrs []string
	lis   []net.Listener
	wg    sync.WaitGroup
}

func startDaemons(n int) (*daemons, error) {
	d := &daemons{}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.stop()
			return nil, err
		}
		d.lis = append(d.lis, lis)
		d.addrs = append(d.addrs, lis.Addr().String())
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			// The only error is the closed listener's, at stop.
			_ = distrib.ServeWith(lis, distrib.ServeOptions{})
		}()
	}
	return d, nil
}

// stop closes the listeners and waits for every session to end.
func (d *daemons) stop() {
	for _, l := range d.lis {
		l.Close()
	}
	d.wg.Wait()
}

// loopbackRun is one distrib.Run episode as the coordinator saw it.
type loopbackRun struct {
	res    *distrib.Result
	start  time.Time // distrib.Run called
	ready  time.Time // OnCheckpoint(tick 0)
	epochs []time.Time
	end    time.Time
	alloc0 uint64 // TotalAlloc at ready
	heapMB float64
}

func runLoopback(addrs []string, seed uint64) (*loopbackRun, error) {
	r := &loopbackRun{}
	heap := make(chan float64, 1)
	o := distrib.Options{
		Addrs:    addrs,
		Scenario: "fish", Agents: fishAgents, Seed: seed,
		Partitions: loopbackParts, Ticks: fishEpisode,
		Tunables: distrib.Tunables{Mesh: true},
		OnCheckpoint: func(tick uint64, _ []*engine.Envelope) {
			if tick == 0 && r.ready.IsZero() {
				r.ready = time.Now()
				r.alloc0 = totalAlloc()
			}
		},
		OnEpoch: func(d distrib.EpochDecision) {
			r.epochs = append(r.epochs, time.Now())
			if d.Tick == fishEpisode/2 {
				// Sample the live heap mid-run, off the coordinator loop,
				// while every worker's simulation is resident.
				go func() { heap <- liveHeapMB() }()
			}
		},
	}
	r.start = time.Now()
	res, err := distrib.Run(o)
	r.end = time.Now()
	if err != nil {
		return nil, err
	}
	select {
	case r.heapMB = <-heap:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("live-heap sample never finished")
	}
	r.res = res
	return r, nil
}

func fishLoopbackPass(cfg runConfig, d *daemons, inputs []input, budget time.Duration, tr *tracer) *passStats {
	p := &passStats{}
	root := tr.begin("bench.workload", -1, 0)
	defer tr.end(root)
	deadline := time.Now().Add(budget)
	for op := 0; time.Now().Before(deadline); op++ {
		p.attempted++
		in := inputs[op%len(inputs)]
		r, err := runLoopback(d.addrs, in.seed)
		p.ref.sample()
		p.ref.sample()
		if err != nil {
			p.fail(cfg, "run %d: %v", op, err)
			continue
		}
		p.allocBytes += totalAlloc() - r.alloc0
		p.heapMB = append(p.heapMB, r.heapMB)
		p.setup = append(p.setup, r.ready.Sub(r.start).Seconds())
		run := tr.record("distrib.run", r.start, r.end, root, op)
		tr.record("distrib.setup", r.start, r.ready, run, op)
		var epochs []float64
		prev := r.ready
		for _, e := range r.epochs {
			epochs = append(epochs, e.Sub(prev).Seconds())
			tr.record("distrib.epoch", prev, e, run, op)
			prev = e
		}
		p.net.SentMsgs += r.res.Net.SentMsgs
		p.net.SentBytes += r.res.Net.SentBytes
		p.relayed += r.res.RelayedDataFrames
		p.ticks += int64(r.res.Ticks)
		var got uint64
		tr.timed("bench.digest", root, op, func() { got = digest(r.res.Agents) })
		if got != in.or.digest || r.res.Ticks != fishEpisode || len(epochs) == 0 {
			p.fail(cfg, "run %d: digest %016x at tick %d, oracle %016x at %d", op, got, r.res.Ticks, in.or.digest, fishEpisode)
			continue
		}
		p.agentTicks += in.or.agentTicks
		perEpoch := float64(in.or.agentTicks) / float64(len(epochs))
		for _, s := range epochs {
			p.runs = append(p.runs, s)
			p.rates = append(p.rates, perEpoch/s)
		}
	}
	return p
}

func runFishLoopback(cfg runConfig) (*result, error) {
	inputs, err := makeInputs("fish", fishAgents, cfg.seed, fishInputs, fishEpisode, cfg.trace)
	if err != nil {
		return nil, err
	}
	d, err := startDaemons(loopbackDaemons)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return fishLoopbackPass(cfg, d, inputs, budget, nil).result(), nil
	}
	untraced := fishLoopbackPass(cfg, d, inputs, budget/2, nil)
	tr := newTracer()
	traced := fishLoopbackPass(cfg, d, inputs, budget/2, tr)
	seed, or := inputs[0].seed, inputs[0].or

	m := layerMap()
	rep := tr.begin("bench.replay", -1, 0)
	// The same inputs on the in-process engine, one epoch per step: the
	// compute an epoch costs without the wire.
	eng, err := replayEngine(tr, rep, "fish", fishAgents, seed, loopbackParts, fishEpoch, fishEpisode, fishEpoch)
	if err != nil {
		return nil, err
	}
	if eng.digest != or.digest {
		traced.fail(cfg, "engine replay digest %016x, oracle %016x", eng.digest, or.digest)
	}
	if err := commonReplays(tr, rep, "fish", fishEpoch, or, eng, m); err != nil {
		return nil, err
	}
	tr.end(rep)
	ticks := float64(max(traced.ticks, 1))
	epoch := 1e3 * median(traced.runs)
	inproc := median(eng.stepMs)
	setOverhead(untraced, traced, m)
	m["transport.frames_per_tick"] = metric{float64(traced.net.SentMsgs) / ticks, "count"}
	m["transport.wire_bytes_per_tick"] = metric{float64(traced.net.SentBytes) / ticks, "B"}
	m["distrib.epoch_ms_p50"] = metric{epoch, "ms"}
	m["distrib.wire_overhead_ms_per_epoch"] = metric{epoch - inproc, "ms"}
	m["distrib.relayed_frames"] = metric{float64(traced.relayed), "count"}

	tick := epoch / fishEpoch
	inTick := inproc / fishEpoch
	frames := m["transport.frames_per_tick"].Value * m["transport.roundtrip_us_per_frame"].Value / 1e3
	rows := []breakdownRow{
		{"loopback tick (epoch p50 / 10)", tick, "span"},
		{"  in-process 8-partition tick", inTick, "replay"},
	}
	rows = append(rows, spatialRows("    ", inTick, m, fishAgents)...)
	rows = append(rows, []breakdownRow{
		{"  transport frames, serial send->decode", frames, "replay"},
		{"  distrib barriers + overlap loss", tick - inTick - frames, "rest"},
		{"set-up (Run call -> tick-0 checkpoint) per tick", 1e3 * median(traced.setup) / fishEpisode, "span"},
	}...)
	tr.emit(cfg, "fish-loopback", "tick", rows, m)
	return tracedResult(untraced, traced, m), nil
}

// ---- shared by the workloads ----

// commonReplays fills the metrics every workload takes from the oracle
// and the layer replays. The oracle carries per-tick snapshots; epoch is
// the workload's epoch length.
func commonReplays(tr *tracer, parent int, scenario string, epoch int, or *oracle, eng *engineReplay, m map[string]metric) error {
	m["engine.oracle_agent_ticks_per_s"] = metric{float64(or.agentTicks) / or.seconds, "agent-ticks/s"}
	m["engine.oracle_list_reuse_ratio"] = metric{reuseRatio(spatial.CacheStats{Builds: or.cache.CacheBuilds, Reuses: or.cache.CacheReuses}), "ratio"}
	eng.setEngineCounters(m)
	s, err := schemaOf(scenario)
	if err != nil {
		return err
	}
	replaySpatial(tr, parent, s, or.snaps[len(or.snaps)-1], tunedSkin(s, or.snaps, epoch), m)
	// The last three pairs of consecutive epoch-boundary snapshots.
	var epochs [][]*engine.Envelope
	for t := len(or.snaps) - 1; t >= 0 && len(epochs) < 4; t -= epoch {
		epochs = append([][]*engine.Envelope{or.snaps[t]}, epochs...)
	}
	if err := replayDelta(tr, parent, epochs, m); err != nil {
		return err
	}
	return replayTransport(tr, parent, eng.msgs, m)
}

// spatialRows splits a tick of tick ms by the spatial replays, at the
// engine's observed rebuild rate. From outside the engine a rebuild's
// kind is unknown: the adaptive gate drops candidate lists on workloads
// that outrun the skin, so a rebuild costs between a bare tree build and
// tree plus lists. The remainder is taken against the lower bound.
func spatialRows(indent string, tick float64, m map[string]metric, agents int) []breakdownRow {
	rebuild := (1 - m["engine.list_reuse_ratio"].Value) * float64(agents) / 1e6
	tree := rebuild * m["spatial.kd_build_ns_per_agent"].Value
	lists := rebuild * m["spatial.list_build_ns_per_agent"].Value
	probe := m["spatial.probe_ns_per_agent"].Value * float64(agents) / 1e6
	return []breakdownRow{
		{indent + "spatial rebuilds, tree only (lower bound)", tree, "replay"},
		{indent + "spatial rebuilds, tree + lists (upper bound)", tree + lists, "replay"},
		{indent + "spatial list scan + exact filter, every agent", probe, "replay"},
		{indent + "rest: map, update, halo, barrier, list builds", tick - tree - probe, "rest"},
	}
}
