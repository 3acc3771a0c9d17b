// The incremental query layer: a CachedIndex wraps the KD-tree with the
// molecular-dynamics Verlet-list technique. Behavioral simulations probe
// the same (slowly moving) point set every tick, so instead of rebuilding
// the tree and re-running every traversal per tick, the cache builds each
// agent's candidate list once with an inflated radius ρ+s ("skin" s) and
// reuses the lists — a filtered linear scan, no tree walk, no sort —
// until some point has drifted more than s/2 from its build position.
//
// Correctness invariant: every point p carries a build position b(p) with
// |cur(p) − b(p)| ≤ s/2, and every probing slot i's list holds every point
// j with |b(i) − b(j)| ≤ ρ+s. Then for any probe radius r ≤ ρ centered at
// i's *current* position, every point currently within r is in the list
// (triangle inequality, two moves of ≤ s/2). All inequalities are closed,
// so reuse is exact at a displacement of exactly s/2.
//
// The invariant is per pair, so it survives membership changes: a patch
// (see tryPatch) drops departed points from the lists, gives each arrival
// its current position as build position (and, if it probes, a fresh
// list), and inserts it into every list whose build position lies within
// ρ+s of it.
package spatial

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"github.com/bigreddata/brace/internal/geom"
)

// CacheStats counts how BuildKeyed calls resolved: Builds is full rebuilds
// (tree + candidate lists), Reuses is ticks served from cached lists, and
// Patches is the subset of Reuses whose keyed membership or probe set
// changed, served by patching the cached lists (see BuildKeyed). Unlike
// Index.Stats on the base indexes, these counters — and the cached index's
// Stats — accumulate across Build calls; callers take deltas.
type CacheStats struct {
	Builds  int64
	Reuses  int64
	Patches int64
}

// CachedIndex is a KD-tree with Verlet candidate-list reuse. It implements
// Index (generic probes answer against the *current* positions, even when
// the underlying tree holds stale build positions), plus the keyed build
// and per-slot batched probe API the engines use.
//
// Concurrency: BuildKeyed/Build/Invalidate must be called from one
// goroutine at a time, with no queries in flight. Between builds, all
// queries are safe to run concurrently: SlotCandidates (the parallel
// query phase's hot path) and RangeCircleInto are read-only on build
// state, and the generic Index queries allocate their own scratch and
// touch only atomic counters — the engines' probe fallback relies on
// this during a parallel query phase.
type CachedIndex struct {
	tree     *KDTree
	probeRad float64 // max slot-probe radius the lists must cover (ρ)
	skin     float64 // list inflation s; reuse while max displacement ≤ s/2

	valid bool
	keyed bool // last build carried caller keys (reuse is possible)
	n     int

	// Adaptive candidate-list gate. Workloads whose per-tick motion
	// exceeds skin/2 never reuse, so list construction would be pure
	// overhead every tick; after one full build-reuse-miss cycle the cache
	// stops building lists and degrades to plain per-tick rebuilds.
	// Invalidate resets the gate, so in the distributed engine the state
	// machine restarts at every epoch barrier — keeping a recovered run's
	// adaptation (and therefore its index work) identical to an unfailed
	// one's.
	listsOn    bool
	listsBuilt bool  // the current build carries lists
	buildSeen  bool  // a rebuild happened since the last Invalidate
	reuseRun   int   // reuses since the last rebuild
	buildCost  int64 // tree candidates visited by the last list build
	listWork   int64 // candidate-list entries of the last build (per-tick scan cost)

	keys     []int64    // per-slot identity at build
	keysAsc  bool       // keys are strictly ascending (a patch precondition)
	probeSet []int32    // slots that probe (nil = all)
	hasProbe bool       // probeSet was provided
	built    []geom.Vec // build positions, slot order
	cur      []geom.Vec // current positions, slot order
	ids      []int32    // caller Point.IDs, slot order
	treePts  []Point    // tree's copy (reordered by its Build); ID = slot
	pad      float64    // max displacement since build (generic inflation)

	// Candidate lists in CSR form: slot i's list is ent[off[i]:off[i+1]],
	// ascending, and empty unless mask[i] (i probes). probers counts the
	// probing slots. A patch writes the next lists, mask and build
	// positions into the *Alt buffers and swaps, so a warmed-up patch
	// allocates nothing.
	off, ent       []int32
	mask           []bool
	probers        int
	offAlt, entAlt []int32
	maskAlt        []bool
	builtAlt       []geom.Vec

	// Key pairing between consecutive BuildKeyed calls (see matchKeys).
	same  bool    // the keyed slot sequence is unchanged
	src   []int32 // new slot → old slot holding the same key, -1 = arrival
	remap []int32 // old slot → new slot holding the same key, -1 = departure
	ins   []int64 // patch scratch: row<<32 | arrival slot, one per insertion

	// Per-tick displacement tracking for skin auto-tuning. When enabled,
	// every BuildKeyed records the max distance any surviving point (one
	// whose key the previous call also carried) moved since that call.
	// Reset by Invalidate, so the observations — like the adaptive list
	// gate — are a pure function of forward execution from the last
	// barrier.
	track       bool
	stepSamples int
	stepMax     float64

	// List-build scratch: hits[c] holds, for each sweep point j of chunk c
	// in ascending order, the probing slots within range of j; jcnt[j]
	// counts them, vis[c] is the chunk's visited count, and fill holds the
	// scatter cursors that transpose the hits into the CSR lists.
	hits [][]int32
	jcnt []int32
	vis  []int64
	fill []int32

	// Uniform-grid scratch for the list build (see binGrid).
	grid listGrid

	// Point scratch for BuildKeyedCols (column-fed builds).
	colPts []Point

	stats Stats // probe/visited counters; atomic (see Stats)
	cs    CacheStats
}

// NewCached returns a cached KD-tree whose candidate lists cover slot
// probes up to radius probeRad, with the given skin. probeRad ≤ 0 disables
// candidate lists (generic queries still work, against the stale tree with
// displacement-padded traversals); skin ≤ 0 disables reuse entirely,
// making every BuildKeyed a rebuild.
func NewCached(probeRad, skin float64) *CachedIndex {
	if probeRad < 0 {
		probeRad = 0
	}
	if skin < 0 {
		skin = 0
	}
	return &CachedIndex{tree: NewKDTree(), probeRad: probeRad, skin: skin, listsOn: true}
}

// DefaultSkin picks a skin for a visibility bound and per-tick reachability
// r (0 = unknown): wide enough to amortize rebuilds over a few ticks of
// full-speed motion, narrow enough that candidate lists stay close to the
// true neighborhood. Exposed so engines and experiments share one policy.
func DefaultSkin(probeRad, reach float64) float64 {
	if probeRad <= 0 {
		return 0
	}
	s := probeRad / 2
	if reach > 0 {
		// Reuse window ≈ s/2 / step ≈ 2 ticks at full speed; agents rarely
		// move at full reach every tick, so the realized window is longer.
		if r := 4 * reach; r < s {
			s = r
		}
	}
	return s
}

// Skin returns the configured skin radius s.
func (c *CachedIndex) Skin() float64 { return c.skin }

// SetSkin replaces the skin radius and invalidates the cached build: the
// existing candidate lists were constructed at ρ+oldSkin and their reuse
// bound is oldSkin/2, so they cannot be kept. Negative skins clamp to 0
// (reuse disabled), matching NewCached.
func (c *CachedIndex) SetSkin(s float64) {
	if s < 0 {
		s = 0
	}
	c.skin = s
	c.Invalidate()
}

// SetStepTracking enables (or disables) per-tick displacement observation
// for skin auto-tuning. Off by default: explicit-skin runs skip the extra
// per-build scan entirely.
func (c *CachedIndex) SetStepTracking(on bool) { c.track = on }

// StepStats returns the number of BuildKeyed calls observed since the last
// Invalidate and the maximum per-call displacement among them. A call is
// observed when at least one of its keys was also carried by the previous
// call; arrivals and departures never contribute. Zero-displacement
// duplicate builds (the overlapped path's barrier prebuilds) contribute
// samples but never raise the max, so the max is identical whether or not
// the overlapped tick is active.
func (c *CachedIndex) StepStats() (samples int, maxStep float64) {
	return c.stepSamples, c.stepMax
}

// CacheStats returns cumulative build/reuse/patch counters.
func (c *CachedIndex) CacheStats() CacheStats { return c.cs }

// Invalidate drops the cached build, forcing the next BuildKeyed to
// rebuild, and re-arms the adaptive list gate. Engines call it at epoch
// barriers and after migrations, restores and rebalances so that runs
// reaching the same state through different histories (e.g. a recovered
// vs an unfailed run) also make identical per-tick work — keeping
// cost-driven decisions such as load balancing, and therefore distributed
// runs, bit-identical.
func (c *CachedIndex) Invalidate() {
	c.valid = false
	c.listsOn = true
	c.buildSeen = false
	c.reuseRun = 0
	c.stepSamples = 0
	c.stepMax = 0
}

// HasLists reports whether the current build carries candidate lists —
// the precondition for SlotCandidates.
func (c *CachedIndex) HasLists() bool { return c.listsBuilt }

// ProbeRadius returns the radius the candidate lists cover.
func (c *CachedIndex) ProbeRadius() float64 { return c.probeRad }

// BuildKeyed installs the tick's point set. keys[i] is a stable identity
// for slot i (the engines pass agent IDs). It resolves in one of three
// ways, cheapest first:
//
//   - Reuse: the keyed slot sequence and the probe set are unchanged and
//     no point has moved more than s/2 from its build position. The
//     cached tree and candidate lists stay; only current positions are
//     refreshed.
//   - Patch: the keys differ (or the probe set does), but both the old
//     and the new keys are strictly ascending, no surviving point has
//     moved more than s/2, and the churn — arrivals, departures and
//     probe-set flips — is small against the probe set (patchChurnDiv).
//     The tree is rebuilt over the build positions; surviving lists are
//     remapped to the new slots and receive the arrivals (see tryPatch).
//   - Rebuild: otherwise the tree is rebuilt and, when probeRad > 0,
//     candidate lists with radius probeRad+s are rebuilt for every probe
//     slot (probe == nil means every slot probes).
//
// Reuses and patches count as Reuses in CacheStats, patches also as
// Patches. Returns whether a rebuild happened.
//
// The caller's pts slice is copied, not retained or reordered.
func (c *CachedIndex) BuildKeyed(pts []Point, keys []int64, probe []int32) bool {
	matched := c.matchKeys(len(pts), keys)
	if c.track && matched {
		c.observeStep(pts)
	}
	if c.listsOn && matched {
		if c.tryReuse(pts, probe) {
			c.cs.Reuses++
			c.reuseRun++
			return false
		}
		if c.tryPatch(pts, keys, probe) {
			c.cs.Reuses++
			c.cs.Patches++
			c.reuseRun++
			return false
		}
	}
	// Adaptive gate. Lists pay for themselves two ways: reuse across
	// ticks, and cheaper probes within a tick (a sorted flat scan instead
	// of a tree walk + sort). A build whose lists were never reused AND
	// whose construction cost dwarfed the per-tick scan work means the
	// workload outruns the skin every tick with neighborhoods too small
	// to amortize construction (e.g. a fast random walk with a tiny
	// infection radius) — stop paying for lists. The 3/2 threshold tracks
	// the grid build's interior visit-to-entry ratio of 6.25/π ≈ 2: a
	// same-order build is tolerable (it replaces the tick's tree walks),
	// a clearly costlier one is not.
	if c.listsOn && c.buildSeen && c.reuseRun == 0 && 2*c.buildCost > 3*c.listWork {
		c.listsOn = false
	}
	c.rebuild(pts, keys, probe)
	c.cs.Builds++
	c.buildSeen = true
	c.reuseRun = 0
	return true
}

// BuildKeyedCols is BuildKeyed fed straight from state columns: point i is
// (xs[i], ys[i]) with slot ID i. The engines' columnar path hands its
// position columns to the index without materializing a caller-side point
// slice; the values are the same float64s an agent-side build would read,
// so the resulting tree and lists are identical.
func (c *CachedIndex) BuildKeyedCols(xs, ys []float64, keys []int64, probe []int32) bool {
	c.colPts = grow(c.colPts, len(xs))
	for i := range xs {
		c.colPts[i] = Point{Pos: geom.Vec{X: xs[i], Y: ys[i]}, ID: int32(i)}
	}
	return c.BuildKeyed(c.colPts, keys, probe)
}

// Build implements Index: an unkeyed build always rebuilds (without
// identity, reuse cannot be proven safe). The slice is not retained.
func (c *CachedIndex) Build(pts []Point) {
	c.rebuild(pts, nil, nil)
	c.cs.Builds++
}

// matchKeys pairs the n keyed slots of this call with the previous
// build's: src[k] is the old slot carrying new slot k's key (-1 for an
// arrival) and remap[i] the new slot of old slot i's key (-1 for a
// departure). An unchanged sequence pairs slot by slot (and sets same);
// a changed one pairs by merging, which needs both sequences strictly
// ascending. Reports whether a pairing was made.
func (c *CachedIndex) matchKeys(n int, keys []int64) bool {
	c.same = false
	if !c.valid || !c.keyed || keys == nil || len(keys) != n {
		return false
	}
	m := c.n
	c.src = grow(c.src, n)
	c.remap = grow(c.remap, m)
	if slices.Equal(keys, c.keys) {
		for i := range c.src {
			c.src[i] = int32(i)
			c.remap[i] = int32(i)
		}
		c.same = true
		return true
	}
	if !c.keysAsc {
		return false
	}
	i := 0
	for k, key := range keys {
		if k > 0 && key <= keys[k-1] {
			return false
		}
		for i < m && c.keys[i] < key {
			c.remap[i] = -1
			i++
		}
		if i < m && c.keys[i] == key {
			c.src[k] = int32(i)
			c.remap[i] = int32(k)
			i++
		} else {
			c.src[k] = -1
		}
	}
	for ; i < m; i++ {
		c.remap[i] = -1
	}
	return true
}

// observeStep records the largest displacement of a surviving point since
// the previous BuildKeyed call: pts[k] against c.cur[src[k]], the position
// the same key held then. A call without survivors takes no sample. Runs
// after matchKeys and before reuse/patch/rebuild overwrite c.cur.
func (c *CachedIndex) observeStep(pts []Point) {
	maxD2, survivors := 0.0, false
	for k, o := range c.src[:len(pts)] {
		if o < 0 {
			continue
		}
		survivors = true
		if d2 := pts[k].Pos.Dist2(c.cur[o]); d2 > maxD2 {
			maxD2 = d2
		}
	}
	if !survivors {
		return
	}
	c.stepSamples++
	if s := math.Sqrt(maxD2); s > c.stepMax {
		c.stepMax = s
	}
}

// tryReuse checks the reuse conditions for an unchanged key sequence and,
// when they hold, refreshes current positions and the displacement pad.
func (c *CachedIndex) tryReuse(pts []Point, probe []int32) bool {
	if !c.same || c.skin <= 0 {
		return false
	}
	if (probe == nil) != !c.hasProbe || !slices.Equal(probe, c.probeSet) {
		return false
	}
	lim := (c.skin / 2) * (c.skin / 2)
	maxD2 := 0.0
	for i := range pts {
		if d2 := pts[i].Pos.Dist2(c.built[i]); d2 > maxD2 {
			if d2 > lim {
				return false
			}
			maxD2 = d2
		}
	}
	for i := range pts {
		c.cur[i] = pts[i].Pos
		c.ids[i] = pts[i].ID
	}
	c.pad = math.Sqrt(maxD2)
	return true
}

// patchChurnDiv bounds the churn a patch absorbs: arrivals, departures and
// probe-set flips together at most (old + new probing slots) / patchChurnDiv.
// Each unit of churn costs a tree query, while a rebuild's cost scales
// with the probing slots; past the bound — a population turning over
// wholesale, say — a rebuild is the cheaper and tighter answer.
const patchChurnDiv = 8

// tryPatch carries the cached lists across a keyed-membership or probe-set
// change (matchKeys has paired the slots). Declined — leaving the cache
// untouched for a rebuild — unless lists exist, every surviving point is
// within s/2 of its build position, and the churn fits patchChurnDiv.
//
// A survivor keeps its build position; an arrival takes its current one.
// The tree is rebuilt over the build positions. Then each new slot's list
// is one of:
//
//   - a surviving probe slot's old list rewritten through remap — the map
//     is monotone, so the list stays ascending, and departures drop out —
//     merged with the arrivals within ρ+s of it (found by one tree query
//     per arrival; arrivals are never survivors, so nothing duplicates);
//   - a fresh ρ+s tree query, sorted, for an arrival that probes or a
//     survivor that starts probing;
//   - empty for a slot that does not probe.
//
// Every list then holds every point whose build position is within ρ+s of
// its own, which is the per-pair invariant reuse needs.
func (c *CachedIndex) tryPatch(pts []Point, keys []int64, probe []int32) bool {
	if !c.listsBuilt || c.skin <= 0 {
		return false
	}
	n := len(pts)
	c.maskAlt = grow(c.maskAlt, n)
	mask := c.maskAlt
	for k := range mask {
		mask[k] = probe == nil
	}
	for _, s := range probe {
		mask[s] = true
	}
	lim := (c.skin / 2) * (c.skin / 2)
	maxD2 := 0.0
	churn, probers, survivors := 0, 0, 0
	for k, o := range c.src[:n] {
		if mask[k] {
			probers++
		}
		if o < 0 {
			churn++
			continue
		}
		survivors++
		if mask[k] != c.mask[o] {
			churn++
		}
		if d2 := pts[k].Pos.Dist2(c.built[o]); d2 > maxD2 {
			if d2 > lim {
				return false
			}
			maxD2 = d2
		}
	}
	churn += c.n - survivors
	if churn > (c.probers+probers)/patchChurnDiv {
		return false
	}

	// Build positions, current positions and the tree.
	c.builtAlt = grow(c.builtAlt, n)
	c.cur = grow(c.cur, n)
	c.ids = grow(c.ids, n)
	c.treePts = grow(c.treePts, n)
	for k, p := range pts {
		b := p.Pos
		if o := c.src[k]; o >= 0 {
			b = c.built[o]
		}
		c.builtAlt[k] = b
		c.cur[k] = p.Pos
		c.ids[k] = p.ID
		c.treePts[k] = Point{Pos: b, ID: int32(k)}
	}
	c.tree.Build(c.treePts)
	R := c.probeRad + c.skin

	// Insertions: arrival a goes into every surviving list within ρ+s.
	var probes, visited int64
	c.ins = c.ins[:0]
	hits := c.hits[0][:0]
	for a, o := range c.src[:n] {
		if o >= 0 {
			continue
		}
		var v int64
		hits, v = c.tree.rangeCircleSlots(c.builtAlt[a], R, hits[:0])
		probes++
		visited += v
		for _, i := range hits {
			if mask[i] && c.src[i] >= 0 && c.mask[c.src[i]] {
				c.ins = append(c.ins, int64(i)<<32|int64(a))
			}
		}
	}
	c.hits[0] = hits
	slices.Sort(c.ins)

	// Assemble the new lists; the current lists' size is the estimate.
	c.offAlt = grow(c.offAlt, n+1)
	ent, ins := growSlack(c.entAlt, int(c.off[c.n]))[:0], c.ins
	for k := 0; k < n; k++ {
		c.offAlt[k] = int32(len(ent))
		if !mask[k] {
			continue
		}
		if o := c.src[k]; o >= 0 && c.mask[o] {
			m := 0
			for m < len(ins) && ins[m]>>32 == int64(k) {
				m++
			}
			ent = remapRow(ent, c.ent[c.off[o]:c.off[o+1]], c.remap, ins[:m])
			ins = ins[m:]
			continue
		}
		start := len(ent)
		var v int64
		ent, v = c.tree.rangeCircleSlots(c.builtAlt[k], R, ent)
		probes++
		visited += v
		slices.Sort(ent[start:])
	}
	c.offAlt[n] = int32(len(ent))
	c.entAlt = ent

	c.off, c.offAlt = c.offAlt, c.off
	c.ent, c.entAlt = c.entAlt, c.ent
	c.mask, c.maskAlt = c.maskAlt, c.mask
	c.built, c.builtAlt = c.builtAlt, c.built
	c.n = n
	c.keys = append(c.keys[:0], keys...)
	c.probeSet = append(c.probeSet[:0], probe...)
	c.hasProbe = probe != nil
	c.probers = probers
	c.pad = math.Sqrt(maxD2)
	c.charge(probes, visited)
	return true
}

// remapRow appends to dst the list old rewritten through remap (entries
// with remap < 0, departures, drop out) merged with the arrival slots in
// adds (row<<32 | slot, ascending). Both ascend and are disjoint, so the
// appended row ascends without duplicates.
func remapRow(dst, old, remap []int32, adds []int64) []int32 {
	start := len(dst)
	dst = slices.Grow(dst, len(old)+len(adds))[:start+len(old)+len(adds)]
	w := start
	for _, j := range old {
		nj := remap[j]
		dst[w] = nj
		w += int(uint32(^nj) >> 31) // advance past survivors (nj ≥ 0) only
	}
	// Merge the arrivals in from the back, shifting larger survivors up.
	n := w + len(adds)
	end := n
	for a := len(adds) - 1; a >= 0; a-- {
		s := int32(adds[a])
		for w > start && dst[w-1] > s {
			w--
			end--
			dst[end] = dst[w]
		}
		end--
		dst[end] = s
	}
	return dst[:n]
}

func (c *CachedIndex) rebuild(pts []Point, keys []int64, probe []int32) {
	n := len(pts)
	c.n = n
	c.valid = true
	c.keyed = keys != nil
	c.pad = 0
	c.keys = append(c.keys[:0], keys...)
	c.keysAsc = c.keyed && strictlyAscending(keys)
	c.probeSet = append(c.probeSet[:0], probe...)
	c.hasProbe = probe != nil
	c.built = grow(c.built, n)
	c.cur = grow(c.cur, n)
	c.ids = grow(c.ids, n)
	c.treePts = grow(c.treePts, n)
	for i, p := range pts {
		c.built[i] = p.Pos
		c.cur[i] = p.Pos
		c.ids[i] = p.ID
		c.treePts[i] = Point{Pos: p.Pos, ID: int32(i)}
	}
	c.tree.Build(c.treePts)
	c.listsBuilt = c.listsOn && c.probeRad > 0
	if c.listsBuilt {
		c.buildLists()
	}
}

func strictlyAscending(keys []int64) bool {
	for k := 1; k < len(keys); k++ {
		if keys[k] <= keys[k-1] {
			return false
		}
	}
	return true
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growSlack is grow for the candidate-list arrays: an allocation leaves a
// quarter of headroom, so lists that grow a little from build to build (or
// patch to patch) do not reallocate every time.
func growSlack(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/4)
	}
	return s[:n]
}

// listBuildGrain is the minimum number of probe sweeps per parallel chunk.
const listBuildGrain = 64

// buildLists constructs the per-slot candidate lists with radius ρ+s.
// It sweeps candidates j in ascending slot order and records, per j, every
// probe slot i within range — the pair relation is symmetric, so one range
// probe per candidate discovers all its list memberships. The sweep runs
// in parallel chunks of j into private buffers; transposing the hits in
// chunk order then appends j to each list in ascending order, so every
// list comes out sorted by slot (= ascending agent ID in the engines) with
// no per-probe sort, identical at any chunking.
func (c *CachedIndex) buildLists() {
	n := c.n
	c.mask = grow(c.mask, n)
	for i := range c.mask {
		c.mask[i] = !c.hasProbe
	}
	for _, s := range c.probeSet {
		c.mask[s] = true
	}
	c.probers = 0
	for _, m := range c.mask {
		if m {
			c.probers++
		}
	}

	R := c.probeRad + c.skin
	grid := c.binGrid(R)
	chunks := Parallelism()
	if m := n / listBuildGrain; m < chunks {
		chunks = m
	}
	if chunks < 1 {
		chunks = 1
	}
	for len(c.hits) < chunks {
		c.hits = append(c.hits, nil)
	}
	c.jcnt = grow(c.jcnt, n)
	c.vis = grow(c.vis, chunks)
	sweep := func(chunk, lo, hi int) {
		if grid {
			c.hits[chunk], c.vis[chunk] = c.sweepGrid(lo, hi, R*R, c.hits[chunk][:0])
		} else {
			c.hits[chunk], c.vis[chunk] = c.sweepTree(lo, hi, R, c.hits[chunk][:0])
		}
	}
	if chunks == 1 {
		sweep(0, 0, n)
	} else {
		ParallelFor(n, listBuildGrain, sweep)
	}

	// Transpose: count each list's entries, then scatter j into the lists
	// walking the chunk buffers in order (ascending j).
	c.off = grow(c.off, n+1)
	clear(c.off)
	var visited int64
	for chunk := 0; chunk < chunks; chunk++ {
		for _, i := range c.hits[chunk] {
			c.off[i+1]++
		}
		visited += c.vis[chunk]
	}
	for i := 1; i <= n; i++ {
		c.off[i] += c.off[i-1]
	}
	entries := c.off[n]
	c.ent = growSlack(c.ent, int(entries))
	c.fill = grow(c.fill, n)
	copy(c.fill, c.off[:n])
	chunk, pos := 0, 0
	for j := 0; j < n; j++ {
		for k := c.jcnt[j]; k > 0; k-- {
			for pos == len(c.hits[chunk]) {
				chunk, pos = chunk+1, 0
			}
			i := c.hits[chunk][pos]
			pos++
			c.ent[c.fill[i]] = int32(j)
			c.fill[i]++
		}
	}
	c.buildCost, c.listWork = visited, int64(entries)
	c.charge(int64(n), visited)
}

// sweepTree is the sparse-layout list sweep: one tree probe per candidate
// j in [lo, hi), appending the probing slots in range to buf.
func (c *CachedIndex) sweepTree(lo, hi int, R float64, buf []int32) ([]int32, int64) {
	var visited int64
	for j := lo; j < hi; j++ {
		start := len(buf)
		var v int64
		buf, v = c.tree.rangeCircleSlots(c.built[j], R, buf)
		visited += v
		if c.hasProbe {
			kept := start
			for _, i := range buf[start:] {
				if c.mask[i] {
					buf[kept] = i
					kept++
				}
			}
			buf = buf[:kept]
		}
		c.jcnt[j] = int32(len(buf) - start)
	}
	return buf, visited
}

// listGrid is the uniform grid of the dense-layout list build.
type listGrid struct {
	minX, minY, h float64
	nx, ny        int
	start         []int32   // cell → first bin index (ncells+1 entries)
	cur           []int32   // binning cursors
	pts           []int32   // bin order → slot
	xs, ys        []float64 // bin order → build coordinates
}

// cell returns p's clamped cell coordinates.
func (g *listGrid) cell(p geom.Vec) (int, int) {
	cx, cy := int((p.X-g.minX)/g.h), int((p.Y-g.minY)/g.h)
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	return cx, cy
}

// window returns the clamped 5×5 cell neighborhood of p.
func (g *listGrid) window(p geom.Vec) (xlo, xhi, ylo, yhi int) {
	cx, cy := g.cell(p)
	return max(cx-2, 0), min(cx+2, g.nx-1), max(cy-2, 0), min(cy+2, g.ny-1)
}

// binGrid prepares the dense-layout list construction: a uniform grid
// with cell edge R/2 replaces the per-point tree probe. Binning is a
// counting sort (stable, so cell membership ascends by slot) that also
// copies the coordinates into bin order, so the pair sweep streams
// contiguous columns instead of gathering points by slot. Each point
// sweeps its 5×5 cell neighborhood — a pair within R spans at most two
// cells per axis at edge R/2, and the finer cells shrink the tested area
// from 9R² (3×3 at edge R) to 6.25R². Cells of one window row are
// adjacent in the bin layout, so each row is a single contiguous span.
// The order in which a given j tests its candidates never reaches the
// output (the transpose orders every list by j), so the lists hold the
// entries of the tree sweep; only the construction cost (and its Visited
// accounting, which counts bin members examined instead of tree
// candidates) changes. Returns false for layouts so sparse that cells
// would far outnumber points — there the tree's pruning wins and the
// caller keeps the tree sweep.
func (c *CachedIndex) binGrid(R float64) bool {
	n := c.n
	if n == 0 || R <= 0 {
		return false
	}
	g := &c.grid
	g.h = R / 2
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range c.built[:n] {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	fx := math.Floor((maxX-minX)/g.h) + 1
	fy := math.Floor((maxY-minY)/g.h) + 1
	if !(fx > 0 && fy > 0) || fx*fy > float64(16*n+64) {
		return false
	}
	g.minX, g.minY = minX, minY
	g.nx, g.ny = int(fx), int(fy)
	ncells := g.nx * g.ny

	g.start = grow(g.start, ncells+1)
	clear(g.start)
	for _, p := range c.built[:n] {
		cx, cy := g.cell(p)
		g.start[cy*g.nx+cx+1]++
	}
	for i := 1; i <= ncells; i++ {
		g.start[i] += g.start[i-1]
	}
	g.cur = grow(g.cur, ncells)
	copy(g.cur, g.start[:ncells])
	g.pts = grow(g.pts, n)
	g.xs = grow(g.xs, n)
	g.ys = grow(g.ys, n)
	for i, p := range c.built[:n] {
		cx, cy := g.cell(p)
		k := g.cur[cy*g.nx+cx]
		g.pts[k] = int32(i)
		g.xs[k] = p.X
		g.ys[k] = p.Y
		g.cur[cy*g.nx+cx]++
	}
	return true
}

// sweepGrid is the dense-layout list sweep over the grid binGrid built:
// for each candidate j in [lo, hi), the probing slots within R (R2 = R²)
// are appended to buf. The all-slots-probe case (every sequential tick)
// drops the per-candidate mask load.
func (c *CachedIndex) sweepGrid(lo, hi int, R2 float64, buf []int32) ([]int32, int64) {
	g := &c.grid
	maskAll := !c.hasProbe
	var visited int64
	for j := lo; j < hi; j++ {
		p := c.built[j]
		start := len(buf)
		xlo, xhi, ylo, yhi := g.window(p)
		for yy := ylo; yy <= yhi; yy++ {
			base := yy * g.nx
			s, e := g.start[base+xlo], g.start[base+xhi+1]
			xs, ys, slots := g.xs[s:e], g.ys[s:e], g.pts[s:e]
			visited += int64(e - s)
			if maskAll {
				for k, x := range xs {
					dx, dy := x-p.X, ys[k]-p.Y
					if dx*dx+dy*dy <= R2 {
						buf = append(buf, slots[k])
					}
				}
			} else {
				for k, x := range xs {
					dx, dy := x-p.X, ys[k]-p.Y
					if dx*dx+dy*dy <= R2 {
						if i := slots[k]; c.mask[i] {
							buf = append(buf, i)
						}
					}
				}
			}
		}
		c.jcnt[j] = int32(len(buf) - start)
	}
	return buf, visited
}

// SlotCandidates returns slot's sorted candidate list and the shared
// current-position array: every point within probeRad of cur[slot] is in
// the list (plus near-misses within the skin); the caller filters by exact
// current distance. Read-only and safe for concurrent calls. Only valid
// after a BuildKeyed with probeRad > 0 and slot in the probe set.
func (c *CachedIndex) SlotCandidates(slot int32) ([]int32, []geom.Vec) {
	lo, hi := c.off[slot], c.off[slot+1]
	return c.ent[lo:hi:hi], c.cur
}

// Current returns the current position of slot i (for callers that track
// slots but not positions).
func (c *CachedIndex) Current(i int32) geom.Vec { return c.cur[i] }

// Len implements Index.
func (c *CachedIndex) Len() int { return c.n }

// Stats implements Index. Counters accumulate across builds (see
// CacheStats); list-construction probes are included. Generic queries may
// run concurrently with each other (their counters are atomic), so Stats
// reads atomically too.
func (c *CachedIndex) Stats() Stats {
	return Stats{
		Probes:  atomic.LoadInt64(&c.stats.Probes),
		Visited: atomic.LoadInt64(&c.stats.Visited),
	}
}

func (c *CachedIndex) charge(probes, visited int64) {
	atomic.AddInt64(&c.stats.Probes, probes)
	atomic.AddInt64(&c.stats.Visited, visited)
}

// The generic Index queries below answer against *current* positions even
// when the underlying tree holds stale build positions: the tree is probed
// with the region grown by the maximum displacement since build, then
// candidates filter by where they are now. They allocate their own scratch
// and touch only read-shared build state plus atomic counters, so they are
// safe to call concurrently — they are the queryEnv fallback when a probe
// exceeds the candidate lists' radius during a parallel query phase.

// Range implements Index against current positions.
func (c *CachedIndex) Range(r geom.Rect, fn func(Point)) {
	slots, visited := c.tree.rangeRectSlots(r.Expand(c.pad), nil)
	c.charge(1, visited)
	for _, i := range slots {
		if r.Contains(c.cur[i]) {
			fn(Point{Pos: c.cur[i], ID: c.ids[i]})
		}
	}
}

// RangeCircle implements Index against current positions.
func (c *CachedIndex) RangeCircle(cen geom.Vec, rad float64, fn func(Point)) {
	slots, visited := c.RangeCircleInto(cen, rad, nil)
	c.charge(1, visited)
	for _, i := range slots {
		fn(Point{Pos: c.cur[i], ID: c.ids[i]})
	}
}

// RangeCircleInto appends the slots currently within rad of cen to the
// caller-owned dst and returns (dst, candidates visited). It is the
// engines' fallback when a probe is not served by the candidate lists:
// stats-free and touching only read-shared build state, it is safe during
// a parallel query phase, and reuses the caller's buffer. Right after a
// rebuild (pad 0) the tree's filter is already exact; on reuse ticks the
// padded traversal re-filters by current position.
func (c *CachedIndex) RangeCircleInto(cen geom.Vec, rad float64, dst []int32) ([]int32, int64) {
	if c.pad == 0 {
		return c.tree.rangeCircleSlots(cen, rad, dst)
	}
	start := len(dst)
	dst, visited := c.tree.rangeCircleSlots(cen, rad+c.pad, dst)
	r2 := rad * rad
	kept := start
	for _, i := range dst[start:] {
		if c.cur[i].Dist2(cen) <= r2 {
			dst[kept] = i
			kept++
		}
	}
	return dst[:kept], visited
}

// Nearest implements Index against current positions. The k nearest build
// positions bound the answer: any point among the current k nearest has a
// build distance within twice the displacement pad of the build k-th
// distance, so one padded range collects an exact candidate superset.
func (c *CachedIndex) Nearest(cen geom.Vec, k int, dst []Point) []Point {
	if k <= 0 || c.n == 0 {
		c.charge(1, 0)
		return dst
	}
	var slots []int32
	if k >= c.n {
		slots = make([]int32, c.n)
		for i := range slots {
			slots[i] = int32(i)
		}
		c.charge(1, int64(c.n))
	} else {
		nn, visited := c.tree.nearestInto(cen, k, nil)
		dk := math.Sqrt(nn[len(nn)-1].Pos.Dist2(cen))
		// Inflate past rounding: a too-wide candidate circle is harmless
		// (candidates are re-ranked by exact current distance below), a
		// too-narrow one drops a boundary point.
		r := dk + 2*c.pad
		r += r*1e-9 + 1e-12
		var v2 int64
		slots, v2 = c.tree.rangeCircleSlots(cen, r, nil)
		c.charge(1, visited+v2)
	}
	sort.Slice(slots, func(a, b int) bool {
		da, db := c.cur[slots[a]].Dist2(cen), c.cur[slots[b]].Dist2(cen)
		if da != db {
			return da < db
		}
		return c.ids[slots[a]] < c.ids[slots[b]]
	})
	if len(slots) > k {
		slots = slots[:k]
	}
	for _, i := range slots {
		dst = append(dst, Point{Pos: c.cur[i], ID: c.ids[i]})
	}
	return dst
}

var _ Index = (*CachedIndex)(nil)
