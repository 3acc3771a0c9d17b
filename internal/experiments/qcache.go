package experiments

import (
	"fmt"
	"strings"

	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/scenario"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/stats"
)

// AblationQueryCache measures the Verlet query cache (the fast path
// layered over the paper's §5.2 indexing): every registered scenario runs
// on the sequential engine with the cache off and on, and on the
// in-process distributed engine at 2 workers with the cache on, reporting
// wall throughput for each, with the cost-model split — how many query
// phases were full index rebuilds vs candidate-list reuses, and how many
// of the distributed reuses were patches across partition churn — in the
// notes. The adaptive gate means "cache on" never loses: workloads that
// outrun the skin (fast random walks with tiny probe radii) degrade to the
// plain rebuild path after one miss cycle, which the builds/reuses split
// makes visible.
func AblationQueryCache(s Scale) (*Result, error) {
	off := &stats.Series{Label: "cache off"}
	on := &stats.Series{Label: "cache on"}
	dist := &stats.Series{Label: "cache on, 2 workers"}
	var seqNotes, distNotes []string
	ticks := s.Ticks + s.WarmupTicks
	for xi, sp := range scenario.All() {
		cfg := sweepConfig(sp, s)
		for _, skin := range []float64{-1, 0} {
			m, pop, err := sp.New(cfg)
			if err != nil {
				return nil, err
			}
			eng, err := engine.NewSequentialCache(m, pop, spatial.KindKDTree, s.Seed, skin)
			if err != nil {
				return nil, err
			}
			if err := eng.RunTicks(ticks); err != nil {
				return nil, err
			}
			if skin < 0 {
				off.Add(float64(xi), eng.ThroughputWall())
			} else {
				on.Add(float64(xi), eng.ThroughputWall())
				cs := eng.CacheStats()
				seqNotes = append(seqNotes, fmt.Sprintf("%s=%db/%dr", sp.Name, cs.Builds, cs.Reuses))
			}
		}
		m, pop, err := sp.New(cfg)
		if err != nil {
			return nil, err
		}
		eng, err := engine.NewDistributed(m, pop, engine.Options{Workers: 2, Index: spatial.KindKDTree, Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		if err := eng.RunTicks(ticks); err != nil {
			return nil, err
		}
		dist.Add(float64(xi), eng.ThroughputWall())
		cs := eng.CacheStats()
		distNotes = append(distNotes, fmt.Sprintf("%s=%db/%dr/%dp", sp.Name, cs.Builds, cs.Reuses, cs.Patches))
	}
	return &Result{
		ID:     "Query Cache",
		Title:  "ablation: Verlet query cache off vs on (agent-ticks/s, sequential and 2-worker distributed engine)",
		XName:  "scenario #",
		Series: []*stats.Series{off, on, dist},
		PaperClaim: "beyond the paper: §5.2 rebuilds the spatial index every tick; candidate-list " +
			"reuse with a skin radius removes the per-tick rebuild and per-probe sort when motion allows",
		Notes: "builds/reuses per scenario, sequential: " + strings.Join(seqNotes, " ") +
			"; 2 workers builds/reuses/patches: " + strings.Join(distNotes, " "),
	}, nil
}
