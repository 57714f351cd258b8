package grid

import (
	"math/rand/v2"
	"testing"

	"sops/internal/lattice"
)

// payloadOracle mirrors a grid's (occupancy, payload) pairs in maps, applying
// the same operations; tests compare the grid against it after every step.
type payloadOracle struct {
	occ map[lattice.Point]bool
	pay map[lattice.Point]uint8
}

func newPayloadOracle() *payloadOracle {
	return &payloadOracle{occ: map[lattice.Point]bool{}, pay: map[lattice.Point]uint8{}}
}

func (o *payloadOracle) add(p lattice.Point, v uint8) { o.occ[p] = true; o.pay[p] = v }
func (o *payloadOracle) remove(p lattice.Point)       { delete(o.occ, p); delete(o.pay, p) }
func (o *payloadOracle) move(src, dst lattice.Point)  { o.add(dst, o.pay[src]); o.remove(src) }
func (o *payloadOracle) set(p lattice.Point, v uint8) { o.pay[p] = v }
func (o *payloadOracle) check(t *testing.T, g *Grid, step int) {
	t.Helper()
	if g.N() != len(o.occ) {
		t.Fatalf("step %d: grid holds %d cells, oracle %d", step, g.N(), len(o.occ))
	}
	for p, v := range o.pay {
		if !g.Has(p) {
			t.Fatalf("step %d: cell %v missing from grid", step, p)
		}
		if got := g.Payload(p); got != v {
			t.Fatalf("step %d: payload at %v = %d, oracle %d", step, p, got, v)
		}
	}
	// Margin invariant: every occupied cell keeps distance ≥ margin from the
	// window border, so mask/degree/payload reads never need bounds checks.
	g.Each(func(p lattice.Point) {
		if g.nearBorder(p) {
			t.Fatalf("step %d: occupied cell %v violates the %d-cell margin (window %d×%d at %d,%d)",
				step, p, margin, g.w, g.h, g.minX, g.minY)
		}
	})
}

// TestPayloadSurvivesGrowth is the grow property test: under outward random
// walks that repeatedly trigger window reallocation, every (occupancy,
// payload) pair must be preserved exactly and the 2-cell margin invariant
// must hold after every operation. Tiny initial slack maximizes the number
// of grows exercised.
func TestPayloadSurvivesGrowth(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 77))
		n := 3 + rng.IntN(12)
		pts := lattice.Spiral(lattice.Point{}, n)
		g := New(pts, minSlack)
		g.EnablePayload()
		o := newPayloadOracle()
		for _, p := range pts {
			v := uint8(rng.IntN(6))
			g.SetPayload(p, v)
			o.add(p, v)
		}
		o.check(t, g, -1)

		walker := pts[rng.IntN(len(pts))]
		for step := 0; step < 400; step++ {
			switch op := rng.IntN(10); {
			case op < 6: // walk a particle outward: the grow trigger
				// Biased drift away from the origin so the walk keeps
				// hitting the margin.
				d := lattice.Dir(rng.IntN(lattice.NumDirs))
				dst := walker.Neighbor(d)
				if dst.X+dst.Y < walker.X+walker.Y && rng.IntN(3) > 0 {
					dst = walker.Neighbor(d.Opposite())
				}
				if g.Has(dst) {
					continue
				}
				g.Move(walker, dst)
				o.move(walker, dst)
				walker = dst
			case op < 8: // add a fresh far-out particle with a payload
				p := lattice.Point{X: rng.IntN(2*step+3) - step, Y: rng.IntN(2*step+3) - step}
				if g.Has(p) {
					continue
				}
				g.Add(p)
				v := uint8(rng.IntN(6))
				g.SetPayload(p, v)
				o.add(p, v)
			case op < 9: // rewrite a payload in place
				g.SetPayload(walker, uint8(step%6))
				o.set(walker, uint8(step%6))
			default: // remove and re-add: payload must reset to zero
				if walker == (lattice.Point{}) {
					continue
				}
				p := lattice.Point{}
				if !g.Has(p) {
					continue
				}
				g.Remove(p)
				o.remove(p)
				g.Add(p)
				o.add(p, 0)
			}
			o.check(t, g, step)
		}

		// Clone must deep-copy the payload array.
		c := g.Clone()
		g.SetPayload(walker, 99)
		if c.Payload(walker) == 99 {
			t.Fatalf("trial %d: clone shares payload storage with original", trial)
		}
	}
}

// TestPairSameAndSameNeighborMask checks the payload submask extractors
// against brute-force recomputation on random payloaded configurations.
func TestPairSameAndSameNeighborMask(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 9))
	for trial := 0; trial < 200; trial++ {
		var pts []lattice.Point
		p := lattice.Point{}
		for i := 0; i < 30; i++ {
			pts = append(pts, p)
			p = p.Neighbor(lattice.Dir(rng.IntN(lattice.NumDirs)))
		}
		g := New(pts, minSlack)
		g.EnablePayload()
		g.Each(func(q lattice.Point) { g.SetPayload(q, uint8(rng.IntN(4))) })

		for _, l := range g.Points() {
			for s := uint8(0); s < 4; s++ {
				var wantN uint8
				for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
					if q := l.Neighbor(d); g.Has(q) && g.Payload(q) == s {
						wantN |= 1 << uint(d)
					}
				}
				if got := g.SameNeighborMask(l, s); got != wantN {
					t.Fatalf("trial %d cell %v spin %d: SameNeighborMask %06b, want %06b", trial, l, s, got, wantN)
				}
				for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
					m := g.PairMask(l, d)
					var want Mask
					for k, off := range MaskOffsets(d) {
						if q := l.Add(off); g.Has(q) && g.Payload(q) == s {
							want |= 1 << uint(k)
						}
					}
					if got := g.PairSame(l, d, m, s); got != want {
						t.Fatalf("trial %d cell %v dir %v spin %d: PairSame %08b, want %08b", trial, l, d, s, got, want)
					}
				}
			}
		}
	}
}

// checkSameReaders compares SameWindow and NeighborStates at the occupied
// cell l against their reference definitions for state s: has and payload
// are the oracle's view of the configuration.
func checkSameReaders(t *testing.T, g *Grid, l lattice.Point, s uint8, has func(lattice.Point) bool, payload func(lattice.Point) uint8) {
	t.Helper()
	same := func(q lattice.Point) bool { return has(q) && payload(q) == s }
	packed := g.SameWindow(l, s).Packed()
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		var want Mask
		for k, off := range MaskOffsets(d) {
			if same(l.Add(off)) {
				want |= 1 << uint(k)
			}
		}
		if got := packed.PairMask(d); got != want {
			t.Fatalf("SameWindow(%v, %d) byte %v = %08b, reference PairSame %08b", l, s, d, got, want)
		}
	}
	var wantN uint8
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		if same(l.Neighbor(d)) {
			wantN |= 1 << uint(d)
		}
	}
	if got := packed.NeighborMask(); got != wantN {
		t.Fatalf("SameWindow(%v, %d) neighbor byte = %06b, reference %06b", l, s, got, wantN)
	}
	if got := g.NeighborStates(l).Same(s); got != wantN {
		t.Fatalf("NeighborStates(%v).Same(%d) = %06b, reference %06b", l, s, got, wantN)
	}
}

// TestSameWindowAndNeighborStates checks the cached-fold readers against
// PairSame, SameNeighborMask and a brute-force oracle on random payloaded
// configurations, for every state including ones no cell holds. Random
// moves after construction push cells up to the 2-cell margin, so the
// window reads are exercised next to the border too.
func TestSameWindowAndNeighborStates(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 2))
	const states = 5
	atMargin := 0
	for trial := 0; trial < 150; trial++ {
		var pts []lattice.Point
		p := lattice.Point{}
		for i := 0; i < 25; i++ {
			pts = append(pts, p)
			p = p.Neighbor(lattice.Dir(rng.IntN(lattice.NumDirs)))
		}
		g := New(pts, minSlack)
		g.EnablePayload()
		g.Each(func(q lattice.Point) { g.SetPayload(q, uint8(rng.IntN(states-1))) })
		for step := 0; step < 12; step++ {
			cur := g.Points()
			src := cur[rng.IntN(len(cur))]
			if dst := src.Neighbor(lattice.Dir(rng.IntN(lattice.NumDirs))); !g.Has(dst) {
				g.Move(src, dst)
			}
		}
		for _, l := range g.Points() {
			cx, cy := l.X-g.minX, l.Y-g.minY
			if cx == margin || cy == margin || cx == g.w-1-margin || cy == g.h-1-margin {
				atMargin++
			}
			for s := uint8(0); s < states; s++ {
				checkSameReaders(t, g, l, s, g.Has, g.Payload)
				packed := g.SameWindow(l, s).Packed()
				if got, want := packed.NeighborMask(), g.SameNeighborMask(l, s); got != want {
					t.Fatalf("trial %d cell %v state %d: SameWindow neighbor byte %06b, SameNeighborMask %06b", trial, l, s, got, want)
				}
				for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
					if got, want := packed.PairMask(d), g.PairSame(l, d, g.PairMask(l, d), s); got != want {
						t.Fatalf("trial %d cell %v dir %v state %d: SameWindow byte %08b, PairSame %08b", trial, l, d, s, got, want)
					}
				}
			}
		}
	}
	if atMargin == 0 {
		t.Fatal("no cell reached the window margin; the border case went untested")
	}
}
