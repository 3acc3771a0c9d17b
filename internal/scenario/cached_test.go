package scenario

import (
	"testing"

	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
)

// TestCachedQueryEquivalence asserts the Verlet query cache is
// semantics-preserving for every registered scenario: the cached engines
// (the default) compute bit-identical state to explicitly uncached ones,
// on the sequential engine and on the distributed engine at 1, 2 and 8
// workers. Sequential comparisons are exact even for non-local scenarios
// (one process, one fold order); distributed comparisons pin cached vs
// uncached at the *same* worker count, where the fold grouping is
// identical, so they are exact for every scenario too.
func TestCachedQueryEquivalence(t *testing.T) {
	const ticks = 12
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			for _, seed := range []uint64{3, 17} {
				m, base, err := sp.New(testConfig(sp, seed))
				if err != nil {
					t.Fatal(err)
				}

				plain, err := engine.NewSequentialCache(m, clonePop(base), spatial.KindKDTree, seed, -1)
				if err != nil {
					t.Fatal(err)
				}
				cached, err := engine.NewSequentialCache(m, clonePop(base), spatial.KindKDTree, seed, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := plain.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				if err := cached.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				assertExact(t, sp.Name+"/seq-cached", seed, 1, plain.Agents(), cached.Agents())

				for _, workers := range []int{1, 2, 8} {
					dPlain, err := engine.NewDistributed(m, clonePop(base), engine.Options{
						Workers: workers, Index: spatial.KindKDTree, Seed: seed, Tunables: engine.Tunables{CacheSkin: -1},
					})
					if err != nil {
						t.Fatal(err)
					}
					dCached, err := engine.NewDistributed(m, clonePop(base), engine.Options{
						Workers: workers, Index: spatial.KindKDTree, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := dPlain.RunTicks(ticks); err != nil {
						t.Fatal(err)
					}
					if err := dCached.RunTicks(ticks); err != nil {
						t.Fatal(err)
					}
					assertExact(t, sp.Name+"/dist-cached", seed, workers, dPlain.Agents(), dCached.Agents())
				}
			}
		})
	}
}

// TestCachedEquivalenceUnderLoadBalance pins the epoch-barrier
// invalidation contract where it matters most: with the load balancer on,
// the balancer's inputs (candidates-visited counters) differ between
// cached and uncached runs, so partitionings may diverge — but for
// local-effect scenarios state must not, because partitioning never
// changes results. Runs long enough to cross several epoch boundaries and
// rebalances.
func TestCachedEquivalenceUnderLoadBalance(t *testing.T) {
	const ticks = 30
	for _, sp := range All() {
		if !sp.LocalOnly {
			continue
		}
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			m, base, err := sp.New(testConfig(sp, 11))
			if err != nil {
				t.Fatal(err)
			}
			run := func(skin float64) *engine.Distributed {
				e, err := engine.NewDistributed(m, clonePop(base), engine.Options{
					Workers: 4, Index: spatial.KindKDTree, Seed: 11,
					LoadBalance: true, Tunables: engine.Tunables{EpochTicks: 5, CacheSkin: skin},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				return e
			}
			plain := run(-1)
			cached := run(0)
			assertExact(t, sp.Name+"/lb-cached", 11, 4, plain.Agents(), cached.Agents())
		})
	}
}

// TestDistributedListReuseUnderChurn guards the partitioned query cache
// with deterministic counters, no timing: fish agents change owner every
// tick at 2 workers, and those ownership changes must be patched into the
// cached candidate lists rather than rebuild them, and must not starve the
// skin auto-tuner of displacement samples (which collapsed the skin to its
// ρ/16 floor and switched the lists off).
func TestDistributedListReuseUnderChurn(t *testing.T) {
	sp, ok := Lookup("fish")
	if !ok {
		t.Fatal("fish scenario not registered")
	}
	m, pop, err := sp.New(Config{Agents: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.NewDistributed(m, pop, engine.Options{Workers: 2, Index: spatial.KindKDTree, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := e.RunTicks(20); err != nil {
			t.Fatal(err)
		}
	}
	cs := e.CacheStats()
	if ratio := float64(cs.Reuses) / float64(cs.Builds+cs.Reuses); ratio < 0.5 || cs.Patches == 0 {
		t.Errorf("list reuse ratio %.3f with %d patches (%+v), want ≥ 0.5 and > 0", ratio, cs.Patches, cs)
	}
	s := m.Schema()
	rho := s.Visibility
	if s.ProbeRadius > 0 && s.ProbeRadius < rho {
		rho = s.ProbeRadius
	}
	for w, skin := range e.TunedSkins() {
		if skin <= rho/16 {
			t.Errorf("partition %d tuned skin %v at the ρ/16 floor %v", w, skin, rho/16)
		}
	}
}
