package spatial

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/bigreddata/brace/internal/geom"
)

// churnSim is a keyed population under churn for the patch tests. Keys
// stay strictly ascending (as the distributed engine passes agent IDs);
// coordinates are multiples of 1/64 so moves of exactly s/2 are exact.
type churnSim struct {
	rng     *rand.Rand
	keys    []int64
	pos     []geom.Vec
	nextKey int64
	extent  float64
}

func newChurnSim(seed int64, n int, extent float64) *churnSim {
	s := &churnSim{rng: rand.New(rand.NewSource(seed)), extent: extent}
	for i := 0; i < n; i++ {
		s.arrive()
	}
	return s
}

func (s *churnSim) coord() float64 { return float64(s.rng.Intn(int(s.extent*64))) / 64 }

// arrive inserts a fresh key at a random position in key order (keys are
// spaced by 16 so later arrivals can land between existing ones).
func (s *churnSim) arrive() {
	s.nextKey += 16
	k := s.nextKey
	if len(s.keys) > 0 && s.rng.Intn(2) == 0 {
		// Between two existing keys, when there is room.
		i := s.rng.Intn(len(s.keys))
		lo := int64(0)
		if i > 0 {
			lo = s.keys[i-1]
		}
		if s.keys[i]-lo > 1 {
			k = lo + 1 + s.rng.Int63n(s.keys[i]-lo-1)
		}
	}
	i, _ := slices.BinarySearch(s.keys, k)
	s.keys = slices.Insert(s.keys, i, k)
	s.pos = slices.Insert(s.pos, i, geom.V(s.coord(), s.coord()))
}

func (s *churnSim) depart() {
	if len(s.keys) == 0 {
		return
	}
	i := s.rng.Intn(len(s.keys))
	s.keys = slices.Delete(s.keys, i, i+1)
	s.pos = slices.Delete(s.pos, i, i+1)
}

func (s *churnSim) points() []Point {
	pts := make([]Point, len(s.pos))
	for i, p := range s.pos {
		pts[i] = Point{Pos: p, ID: int32(i)}
	}
	return pts
}

// drift moves every point to within s/2 of its build position in c (some
// exactly s/2 along an axis); points the cache has not seen stay put.
func (s *churnSim) drift(c *CachedIndex, half float64) {
	byKey := map[int64]geom.Vec{}
	for i, k := range c.keys[:c.n] {
		byKey[k] = c.built[i]
	}
	for i, k := range s.keys {
		b, ok := byKey[k]
		if !ok {
			continue
		}
		switch s.rng.Intn(4) {
		case 0:
			s.pos[i] = geom.V(b.X+half, b.Y)
		case 1:
			s.pos[i] = geom.V(b.X, b.Y-half)
		default:
			q := half / 2 // |(±q, ±q)| < half
			s.pos[i] = geom.V(b.X+q*float64(s.rng.Intn(3)-1), b.Y+q*float64(s.rng.Intn(3)-1))
		}
	}
}

// probeSubset returns a random probe set: nil (everyone probes) or an
// ascending subset of the slots.
func (s *churnSim) probeSubset(frac float64) []int32 {
	if frac >= 1 {
		return nil
	}
	probe := []int32{}
	for i := range s.keys {
		if s.rng.Float64() < frac {
			probe = append(probe, int32(i))
		}
	}
	return probe
}

// checkLists asserts the candidate-list contract for every probe slot:
// strictly ascending (so duplicate-free) and a superset of the exact
// answer at the probe radius for current positions, filtering to it.
func checkLists(t *testing.T, step int, c *CachedIndex, pts []Point, probe []int32) {
	t.Helper()
	if !c.HasLists() {
		return
	}
	oracle := NewScan()
	oracle.Build(append([]Point(nil), pts...))
	slots := probe
	if slots == nil {
		slots = make([]int32, len(pts))
		for i := range slots {
			slots[i] = int32(i)
		}
	}
	for _, slot := range slots {
		list, _ := c.SlotCandidates(slot)
		for k := 1; k < len(list); k++ {
			if list[k] <= list[k-1] {
				t.Fatalf("step %d slot %d: list not strictly ascending at %d: %v", step, slot, k, list)
			}
		}
		want := collectCircle(oracle, pts[slot].Pos, c.ProbeRadius())
		if got := slotCircle(c, slot, c.ProbeRadius()); !idsEqual(got, want) {
			t.Fatalf("step %d slot %d: filtered list %v, want %v", step, slot, got, want)
		}
	}
}

// TestCachedPatchProperty drives the keyed build through random arrivals,
// departures, drift up to exactly s/2 and probe-set growth and shrink.
// After every build each probe slot's list must be strictly ascending and
// cover the exact neighborhood; the run must exercise patches and rebuilds.
func TestCachedPatchProperty(t *testing.T) {
	const probeRad, skin = 6.0, 2.0
	var total CacheStats
	for seed := int64(1); seed <= 12; seed++ {
		sim := newChurnSim(seed, 80+int(seed)*20, 60)
		c := NewCached(probeRad, skin)
		frac := 1.0
		for step := 0; step < 40; step++ {
			switch sim.rng.Intn(6) {
			case 0:
				frac = 1
			case 1:
				frac = 0.5 + sim.rng.Float64()/2
			}
			for k := sim.rng.Intn(4); k > 0; k-- {
				sim.arrive()
			}
			for k := sim.rng.Intn(4); k > 0; k-- {
				sim.depart()
			}
			if step%13 == 12 {
				for k := 0; k < 30; k++ { // wholesale turnover: past the budget
					sim.depart()
					sim.arrive()
				}
			}
			if c.valid {
				sim.drift(c, skin/2)
			}
			pts, probe := sim.points(), sim.probeSubset(frac)
			c.BuildKeyed(append([]Point(nil), pts...), sim.keys, probe)
			checkLists(t, step, c, pts, probe)
		}
		cs := c.CacheStats()
		total.Builds += cs.Builds
		total.Reuses += cs.Reuses
		total.Patches += cs.Patches
	}
	if total.Patches == 0 || total.Builds <= 12 || total.Patches > total.Reuses {
		t.Fatalf("churn run did not exercise both paths: %+v", total)
	}
}

// A patch needs strictly ascending keys to pair slots by merging; any
// other changed key sequence falls back to a rebuild.
func TestCachedPatchNeedsAscendingKeys(t *testing.T) {
	sim := newChurnSim(3, 200, 50)
	c := NewCached(6, 2)
	pts := sim.points()
	c.BuildKeyed(append([]Point(nil), pts...), sim.keys, nil)

	// One departure, ascending: patched.
	keys := slices.Delete(slices.Clone(sim.keys), 10, 11)
	pts = slices.Delete(pts, 10, 11)
	for i := range pts {
		pts[i].ID = int32(i)
	}
	c.BuildKeyed(append([]Point(nil), pts...), keys, nil)
	if cs := c.CacheStats(); cs.Builds != 1 || cs.Patches != 1 {
		t.Fatalf("ascending departure should patch: %+v", cs)
	}
	checkLists(t, 1, c, pts, nil)

	// Swap two keys: the sequence is no longer ascending.
	keys[3], keys[4] = keys[4], keys[3]
	c.BuildKeyed(append([]Point(nil), pts...), keys, nil)
	if cs := c.CacheStats(); cs.Builds != 2 || cs.Patches != 1 {
		t.Fatalf("non-ascending keys should rebuild: %+v", cs)
	}
	checkLists(t, 2, c, pts, nil)

	// The previous build's keys are not ascending: the next change
	// rebuilds too, even with ascending keys.
	keys[3], keys[4] = keys[4], keys[3]
	c.BuildKeyed(append([]Point(nil), pts...), keys, nil)
	if cs := c.CacheStats(); cs.Builds != 3 || cs.Patches != 1 {
		t.Fatalf("change from non-ascending keys should rebuild: %+v", cs)
	}
}

// A survivor that drifted past s/2 declines the patch, like reuse.
func TestCachedPatchDeclinesDrift(t *testing.T) {
	sim := newChurnSim(4, 150, 50)
	c := NewCached(6, 2)
	c.BuildKeyed(sim.points(), sim.keys, nil)
	sim.pos[0].X += 1 + 1.0/64
	sim.arrive()
	c.BuildKeyed(sim.points(), sim.keys, nil)
	if cs := c.CacheStats(); cs.Builds != 2 || cs.Patches != 0 {
		t.Fatalf("drift past s/2 should rebuild: %+v", cs)
	}
}

// A warmed-up patched build allocates nothing: lists, masks and build
// positions are double-buffered and swapped.
func TestCachedPatchZeroAllocs(t *testing.T) {
	sim := newChurnSim(5, 400, 60)
	c := NewCached(6, 2)
	ptsA, keysA := sim.points(), slices.Clone(sim.keys)
	for k := 0; k < 5; k++ {
		sim.depart()
		sim.arrive()
	}
	ptsB, keysB := sim.points(), slices.Clone(sim.keys)
	probeB := sim.probeSubset(0.95)
	bufA, bufB := slices.Clone(ptsA), slices.Clone(ptsB)
	cycle := func() {
		copy(bufB, ptsB)
		c.BuildKeyed(bufB, keysB, probeB)
		copy(bufA, ptsA)
		c.BuildKeyed(bufA, keysA, nil)
	}
	c.BuildKeyed(slices.Clone(ptsA), keysA, nil)
	cycle()
	before := c.CacheStats()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warmed-up patched build allocates %.1f times per cycle", allocs)
	}
	after := c.CacheStats()
	if d := after.Patches - before.Patches; d != 2*21 || after.Builds != before.Builds {
		t.Fatalf("every cycle build should patch: before %+v after %+v", before, after)
	}
}
