package spatial

import (
	"math"
	"testing"

	"github.com/bigreddata/brace/internal/geom"
)

func TestSetSkin(t *testing.T) {
	c := NewCached(12, 3)
	c.SetSkin(5)
	if c.Skin() != 5 {
		t.Fatalf("Skin = %v, want 5", c.Skin())
	}
	c.SetSkin(-1)
	if c.Skin() != 0 {
		t.Fatalf("negative skin must clamp to 0, got %v", c.Skin())
	}
}

// SetSkin invalidates: a keyed build after a skin change must rebuild
// (the old candidate lists cover the old skin's safety margin).
func TestSetSkinInvalidates(t *testing.T) {
	c := NewCached(12, 3)
	pts := []Point{{Pos: geom.V(0, 0), ID: 0}, {Pos: geom.V(1, 1), ID: 1}, {Pos: geom.V(4, 2), ID: 2}}
	keys := keysFor(pts)
	c.BuildKeyed(pts, keys, nil)
	if rebuilt := c.BuildKeyed(pts, keys, nil); rebuilt {
		t.Fatal("unchanged build should reuse")
	}
	c.SetSkin(6)
	if rebuilt := c.BuildKeyed(pts, keys, nil); !rebuilt {
		t.Fatal("build after SetSkin must not reuse the old tree")
	}
}

// Step tracking observes the max per-tick displacement across keyed
// builds of the same population, and resets with the cache.
func TestStepTracking(t *testing.T) {
	c := NewCached(12, 3)
	c.SetStepTracking(true)
	pts := []Point{{Pos: geom.V(0, 0), ID: 0}, {Pos: geom.V(10, 0), ID: 1}, {Pos: geom.V(0, 10), ID: 2}}
	keys := keysFor(pts)
	c.BuildKeyed(clonePts(pts), keys, nil)
	if n, s := c.StepStats(); n != 0 || s != 0 {
		t.Fatalf("stats before any step: %d/%v", n, s)
	}

	pts[1].Pos = geom.V(10.3, 0.4) // displacement 0.5
	c.BuildKeyed(clonePts(pts), keys, nil)
	if n, s := c.StepStats(); n != 1 || math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("after one step: samples=%d max=%v, want 1/0.5", n, s)
	}

	pts[2].Pos = geom.V(0, 10.2) // displacement 0.2: max stays 0.5
	c.BuildKeyed(clonePts(pts), keys, nil)
	if n, s := c.StepStats(); n != 2 || math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("smaller step must not lower the max: samples=%d max=%v", n, s)
	}

	c.Invalidate()
	if n, s := c.StepStats(); n != 0 || s != 0 {
		t.Fatalf("Invalidate must reset step stats, got %d/%v", n, s)
	}
}

// Across a key change (births, deaths, migration) the step is the largest
// move among survivors — keys both calls carry, paired by the ascending-key
// merge. Arrivals and departures have no previous position and never count;
// a call with no survivor at all takes no sample.
func TestStepTrackingObservesSurvivorsAcrossKeyChanges(t *testing.T) {
	c := NewCached(12, 3)
	c.SetStepTracking(true)
	c.BuildKeyed([]Point{
		{Pos: geom.V(0, 0), ID: 0},
		{Pos: geom.V(10, 0), ID: 1},
		{Pos: geom.V(20, 0), ID: 2},
	}, []int64{7, 8, 9}, nil)

	// Key 8 departs, key 10 arrives far away, survivors 7 and 9 shift
	// slots-wise (9 moves from slot 2 to slot 1) and move 0.3 and 0.5.
	c.BuildKeyed([]Point{
		{Pos: geom.V(0.3, 0), ID: 0},
		{Pos: geom.V(20, 0.5), ID: 1},
		{Pos: geom.V(500, 500), ID: 2},
	}, []int64{7, 9, 10}, nil)
	if n, s := c.StepStats(); n != 1 || math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("survivor step across a key change: samples=%d max=%v, want 1/0.5", n, s)
	}

	// A disjoint key set has no survivors: no sample, max unchanged.
	c.BuildKeyed([]Point{{Pos: geom.V(900, 900), ID: 0}}, []int64{11}, nil)
	if n, s := c.StepStats(); n != 1 || math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("disjoint key set observed as a step: samples=%d max=%v", n, s)
	}
}

func clonePts(pts []Point) []Point {
	return append([]Point(nil), pts...)
}
