package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"

	"github.com/bigreddata/brace"
	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
)

// digest hashes a population: every live agent's ID and the bits of each
// state field, in ID order. Two engines agree on a run exactly when their
// final digests are equal.
func digest(pop []*agent.Agent) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, a := range pop {
		if a.Dead {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(a.ID))
		h.Write(buf[:])
		for _, v := range a.State {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// envDigest is digest over an envelope view (checkpoints, watch streams).
func envDigest(envs []*engine.Envelope) uint64 {
	pop := make([]*agent.Agent, 0, len(envs))
	for _, e := range envs {
		if !e.Replica {
			pop = append(pop, e.A)
		}
	}
	return digest(pop)
}

// oracle is the sequential engine's run of one input: the reference every
// workload's result must match bit for bit.
type oracle struct {
	digest     uint64
	agentTicks int64
	seconds    float64 // wall time of the ticks alone
	cache      brace.Metrics
	// snaps are deep copies of the population at every tick (tick 0
	// included), taken only when requested.
	snaps [][]*engine.Envelope
}

// runOracle runs scenario on the sequential engine for ticks ticks,
// optionally one tick at a time keeping a snapshot after every tick.
func runOracle(scenario string, agents int, seed uint64, ticks int, keep bool) (*oracle, error) {
	sim, err := brace.NewScenario(scenario, brace.ScenarioConfig{Agents: agents, Seed: seed},
		brace.Config{Sequential: true, Seed: seed})
	if err != nil {
		return nil, err
	}
	o := &oracle{}
	step := ticks
	if keep {
		step = 1
		o.snaps = append(o.snaps, snapshot(sim.Agents()))
	}
	for done := 0; done < ticks; done += step {
		t := time.Now()
		if err := sim.Run(step); err != nil {
			return nil, err
		}
		o.seconds += time.Since(t).Seconds()
		if keep {
			o.snaps = append(o.snaps, snapshot(sim.Agents()))
		}
	}
	o.cache = sim.Metrics()
	o.agentTicks = o.cache.AgentTicks
	o.digest = digest(sim.Agents())
	return o, nil
}

// input is one generated population (by its scenario seed) with the
// oracle's run of it.
type input struct {
	seed uint64
	or   *oracle
}

// makeInputs derives n populations from the benchmark seed and runs the
// oracle on each, before any timed region. Cost varies from population to
// population, so a run cycles through several to measure the workload
// rather than one draw of it. Only the first keeps snapshots, for the
// traced replays.
func makeInputs(scenario string, agents int, seed uint64, n, ticks int, keep bool) ([]input, error) {
	in := make([]input, n)
	for k := range in {
		s := splitmix(seed, k)
		or, err := runOracle(scenario, agents, s, ticks, keep && k == 0)
		if err != nil {
			return nil, err
		}
		in[k] = input{s, or}
	}
	return in, nil
}

// snapshot deep-copies a population into ID-sorted envelopes, the form the
// checkpoint and watch-stream delta codec works on.
func snapshot(pop []*agent.Agent) []*engine.Envelope {
	out := make([]*engine.Envelope, 0, len(pop))
	for _, a := range pop {
		if !a.Dead {
			out = append(out, &engine.Envelope{A: a.Clone()})
		}
	}
	return out
}

// splitmix derives the k-th input seed from the benchmark seed, so nearby
// benchmark seeds still give unrelated populations.
func splitmix(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return z>>1 | 1 // positive and nonzero: zero means "default" in configs
}
