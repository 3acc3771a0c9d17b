package main

// Layer replays: the traced run times each layer's public functions on
// states captured from the workload, from outside the program.

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/scenario"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/transport"
)

// replayBudget bounds each replay's repetitions.
const replayBudget = 100 * time.Millisecond

// repeat times fn until the budget is spent (at least 3 times) and returns
// the median duration of one call.
func repeat(tr *tracer, name string, parent int, fn func()) time.Duration {
	var ds []float64
	start := time.Now()
	for len(ds) < 3 || time.Since(start) < replayBudget {
		ds = append(ds, float64(tr.timed(name, parent, 0, fn)))
		if len(ds) >= 1000 {
			break
		}
	}
	return time.Duration(median(ds))
}

func perAgent(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// schemaOf returns a scenario's agent schema.
func schemaOf(name string) (*agent.Schema, error) {
	sp, ok := scenario.Lookup(name)
	if !ok {
		return nil, scenario.ErrUnknown(name)
	}
	m, _, err := sp.New(scenario.Config{Agents: 1, Seed: 1})
	if err != nil {
		return nil, err
	}
	return m.Schema(), nil
}

// replaySpatial rebuilds the query index over one captured population: a
// bare KD tree, then a Verlet cache invalidated before each build (tree
// plus candidate lists at the given skin), then one slot probe per agent
// with the exact distance filter the query phase applies.
func replaySpatial(tr *tracer, parent int, s *agent.Schema, snap []*engine.Envelope, skin float64, m map[string]metric) {
	n := len(snap)
	pts := make([]spatial.Point, n)
	xs, ys := make([]float64, n), make([]float64, n)
	keys := make([]int64, n)
	for i, e := range snap {
		p := e.A.Pos(s)
		pts[i] = spatial.Point{Pos: p, ID: int32(i)}
		xs[i], ys[i], keys[i] = p.X, p.Y, int64(e.A.ID)
	}
	probe := probeRadius(s)

	scratch := make([]spatial.Point, n)
	tree := spatial.NewKDTree()
	kd := repeat(tr, "spatial.kd_build", parent, func() {
		copy(scratch, pts)
		tree.Build(scratch)
	})
	// One cache, invalidated before every build as at an epoch barrier,
	// so its scratch is reused the way an engine's is.
	c := spatial.NewCached(probe, skin)
	full := repeat(tr, "spatial.list_build", parent, func() {
		c.Invalidate()
		c.BuildKeyedCols(xs, ys, keys, nil)
	})
	var cands, hits int64
	r2 := probe * probe
	pr := repeat(tr, "spatial.probe", parent, func() {
		cands, hits = 0, 0
		for slot := int32(0); slot < int32(n); slot++ {
			list, cur := c.SlotCandidates(slot)
			me := cur[slot]
			cands += int64(len(list))
			for _, j := range list {
				dx, dy := cur[j].X-me.X, cur[j].Y-me.Y
				if dx*dx+dy*dy <= r2 {
					hits++
				}
			}
		}
	})
	m["spatial.kd_build_ns_per_agent"] = metric{perAgent(kd, n), "ns"}
	m["spatial.list_build_ns_per_agent"] = metric{max(0, perAgent(full-kd, n)), "ns"}
	m["spatial.probe_ns_per_agent"] = metric{perAgent(pr, n), "ns"}
	m["spatial.candidates_per_agent"] = metric{float64(cands) / float64(n), "count"}
	m["spatial.hit_ratio"] = metric{float64(hits) / float64(max(cands, 1)), "ratio"}
}

// probeRadius is the engines' cache radius: the model's probe radius when
// it is tighter than visibility, else visibility (engine.cacheProbeRadius).
func probeRadius(s *agent.Schema) float64 {
	if s.ProbeRadius > 0 && s.ProbeRadius < s.Visibility {
		return s.ProbeRadius
	}
	return s.Visibility
}

// tunedSkin is the Verlet skin the distributed engine settles on in the
// last epoch of the run: four ticks of the largest per-tick displacement
// seen in the epoch's three warm-up ticks, clamped to [ρ/16, ρ/2]
// (engine.autoSkinFor). snaps holds one snapshot per tick.
func tunedSkin(s *agent.Schema, snaps [][]*engine.Envelope, epoch int) float64 {
	const warmup = 3 // engine.skinWarmupTicks
	probe := probeRadius(s)
	start := (len(snaps) - 2) / epoch * epoch
	var step float64
	for t := start; t < start+warmup && t+1 < len(snaps); t++ {
		prev := make(map[agent.ID]geom.Vec, len(snaps[t]))
		for _, e := range snaps[t] {
			prev[e.A.ID] = e.A.Pos(s)
		}
		for _, e := range snaps[t+1] {
			if p, ok := prev[e.A.ID]; ok {
				step = max(step, p.Dist(e.A.Pos(s)))
			}
		}
	}
	return min(max(4*step, probe/16), probe/2)
}

// replayDelta encodes and applies the checkpoint/watch-stream delta
// between consecutive epoch snapshots.
func replayDelta(tr *tracer, parent int, snaps [][]*engine.Envelope, m map[string]metric) error {
	var enc, app, bytes, agents float64
	for i := 1; i < len(snaps); i++ {
		base, cur := snaps[i-1], snaps[i]
		var delta []byte
		var ok bool
		enc += float64(repeat(tr, "engine.delta_encode", parent, func() { delta, ok = engine.DiffPartition(base, cur) }))
		if !ok {
			return fmt.Errorf("delta replay: snapshot %d cannot be delta-encoded", i)
		}
		var err error
		app += float64(repeat(tr, "engine.delta_apply", parent, func() { _, err = engine.ApplyDelta(base, delta) }))
		if err != nil {
			return fmt.Errorf("delta replay: %w", err)
		}
		bytes += float64(len(delta))
		agents += float64(len(cur))
	}
	if agents == 0 {
		return fmt.Errorf("delta replay: fewer than two snapshots")
	}
	m["engine.delta_encode_ns_per_agent"] = metric{enc / agents, "ns"}
	m["engine.delta_apply_ns_per_agent"] = metric{app / agents, "ns"}
	m["engine.delta_bytes_per_agent"] = metric{bytes / agents, "B"}
	return nil
}

// replayTransport sends captured data-plane messages as Data frames over a
// loopback TCP pair, one at a time: the time from Send to the decoded
// frame on the far side, its wire size, and the allocations on both ends.
func replayTransport(tr *tracer, parent int, msgs []cluster.Message, m map[string]metric) error {
	if len(msgs) == 0 {
		return fmt.Errorf("transport replay: no captured messages")
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := lis.Accept()
		accepted <- c
	}()
	dc, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return err
	}
	ac := <-accepted
	if ac == nil {
		dc.Close()
		return fmt.Errorf("transport replay: accept failed")
	}
	send, recv := transport.NewConn(dc), transport.NewConn(ac)
	defer send.Close()
	defer recv.Close()

	type got struct {
		n   int
		err error
	}
	sizes := make(chan got, 1) // room for the reader's closing error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			_, n, err := recv.RecvSized()
			sizes <- got{n, err}
			if err != nil {
				return
			}
		}
	}()
	var frames, wire, envs int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for frames < 3*len(msgs) || time.Since(start) < replayBudget {
		for i, msg := range msgs {
			var g got
			tr.timed("transport.roundtrip", parent, 0, func() {
				if err = send.Send(&transport.Frame{Kind: transport.FrameData, Seq: uint64(i + 1), Msg: msg}); err == nil {
					g = <-sizes
				}
			})
			if err != nil || g.err != nil {
				send.Close()
				wg.Wait()
				return fmt.Errorf("transport replay: send %v recv %v", err, g.err)
			}
			frames++
			wire += g.n
			envs += len(msg.Payload.([]*engine.Envelope))
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	send.Close()
	<-sizes // the reader's closing error
	wg.Wait()
	m["transport.roundtrip_us_per_frame"] = metric{float64(elapsed.Microseconds()) / float64(frames), "us"}
	m["transport.bytes_per_envelope"] = metric{float64(wire) / float64(max(envs, 1)), "B"}
	m["transport.allocs_per_frame"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / float64(frames), "count"}
	return nil
}

// recorder wraps the in-memory transport and keeps copies of the run's
// first cross-partition messages for the transport replay.
type recorder struct {
	transport.Transport
	mu   sync.Mutex
	keep int
	msgs []cluster.Message
}

func (r *recorder) Send(msg cluster.Message) error {
	r.mu.Lock()
	if env, ok := msg.Payload.([]*engine.Envelope); ok && msg.From != msg.To && len(r.msgs) < r.keep {
		cp := msg
		cp.Payload = engine.CloneEnvelopes(env)
		r.msgs = append(r.msgs, cp)
	}
	r.mu.Unlock()
	return r.Transport.Send(msg)
}

// engineReplay is an in-process engine.Distributed run of a workload's
// inputs: the reference compute cost without sockets, and the engine's
// own counters (cache reuse, overlap, runtime traffic).
type engineReplay struct {
	stepMs     []float64 // wall time of each step
	ticks      int
	cache      spatial.CacheStats
	overlapSec float64
	traffic    cluster.NodeMetrics
	msgs       []cluster.Message
	digest     uint64
}

// replayEngine runs scenario in-process on parts partitions, driven by
// RunTicks(step) calls, as the facade's Run does.
func replayEngine(tr *tracer, parent int, name string, agents int, seed uint64, parts, epochTicks, ticks, step int) (*engineReplay, error) {
	sp, ok := scenario.Lookup(name)
	if !ok {
		return nil, scenario.ErrUnknown(name)
	}
	mod, pop, err := sp.New(scenario.Config{Agents: agents, Seed: seed})
	if err != nil {
		return nil, err
	}
	rec := &recorder{Transport: transport.NewMem(parts), keep: 4 * parts}
	e, err := engine.NewDistributed(mod, pop, engine.Options{
		Workers:   parts,
		Index:     spatial.KindKDTree, // as brace.New and the worker daemons
		Seed:      seed,
		Tunables:  cluster.Tunables{EpochTicks: epochTicks},
		Transport: rec,
	})
	if err != nil {
		return nil, err
	}
	r := &engineReplay{ticks: ticks}
	for done := 0; done < ticks; done += step {
		var err error
		d := tr.timed("engine.replay_step", parent, 0, func() { err = e.RunTicks(step) })
		if err != nil {
			return nil, err
		}
		r.stepMs = append(r.stepMs, float64(d.Microseconds())/1e3)
	}
	r.cache = e.CacheStats()
	r.overlapSec = e.OverlapSeconds()
	r.traffic = e.Runtime().Transport().Metrics().Totals()
	r.msgs = rec.msgs
	r.digest = digest(e.Agents())
	return r, nil
}

// setEngineCounters records the in-process engine counters every workload
// reports from its replay.
func (r *engineReplay) setEngineCounters(m map[string]metric) {
	t := float64(r.ticks)
	m["engine.list_reuse_ratio"] = metric{reuseRatio(r.cache), "ratio"}
	m["engine.overlap_s_per_tick"] = metric{r.overlapSec / t, "s"}
	m["mapreduce.msgs_per_tick"] = metric{float64(r.traffic.SentMsgs+r.traffic.LocalMsgs) / t, "count"}
	m["mapreduce.local_bytes_per_tick"] = metric{float64(r.traffic.LocalBytes) / t, "B"}
	m["mapreduce.net_bytes_per_tick"] = metric{float64(r.traffic.SentBytes) / t, "B"}
}

func reuseRatio(cs spatial.CacheStats) float64 {
	if cs.Builds+cs.Reuses == 0 {
		return 0
	}
	return float64(cs.Reuses) / float64(cs.Builds+cs.Reuses)
}
