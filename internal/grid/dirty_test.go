package grid

import (
	"math/rand/v2"
	"sort"
	"testing"

	"sops/internal/lattice"
)

// TestDirtyOffsetsDefinition: the dirty neighborhood of (ℓ, ℓ′) is exactly
// the union of the radius-2 disks around the two endpoints minus ℓ, and it
// covers every mask cell and both move endpoints of every (cell, direction)
// pair whose mask can reference ℓ or ℓ′.
func TestDirtyOffsetsDefinition(t *testing.T) {
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		l := lattice.Point{}
		lp := l.Neighbor(d)
		want := map[lattice.Point]bool{}
		for _, p := range lattice.Disk(l, 2) {
			want[p] = true
		}
		for _, p := range lattice.Disk(lp, 2) {
			want[p] = true
		}
		delete(want, l)
		got := map[lattice.Point]bool{}
		for _, off := range DirtyOffsets(d) {
			if got[off] {
				t.Fatalf("dir %v: duplicate offset %v", d, off)
			}
			got[off] = true
		}
		if len(got) != len(want) {
			t.Fatalf("dir %v: %d offsets, want %d", d, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("dir %v: missing offset %v", d, p)
			}
		}

		// Completeness: any cell j whose PairMask (some direction dd) or
		// move endpoints touch l or lp must lie in the dirty set or be l.
		for _, j := range lattice.Disk(l, 4) {
			touches := false
			for dd := lattice.Dir(0); dd < lattice.NumDirs; dd++ {
				for _, off := range MaskOffsets(dd) {
					if c := j.Add(off); c == l || c == lp {
						touches = true
					}
				}
				if c := j.Neighbor(dd); c == l || c == lp {
					touches = true
				}
			}
			if touches && j != l && !got[j] {
				t.Fatalf("dir %v: cell %v can reference the pair but is not dirty", d, j)
			}
		}
	}
}

// TestOccupiedNearPairMatchesReference: the grid enumerator agrees with a
// brute-force scan on random configurations, both in the interior fast path
// and the near-border slow path.
func TestOccupiedNearPairMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		var pts []lattice.Point
		p := lattice.Point{}
		for i := 0; i < 40; i++ {
			pts = append(pts, p)
			p = p.Neighbor(lattice.Dir(rng.IntN(lattice.NumDirs)))
		}
		// Small slack keeps some query points near the window border so the
		// slow path is exercised too.
		g := New(pts, minSlack)
		l := pts[rng.IntN(len(pts))]
		d := lattice.Dir(rng.IntN(lattice.NumDirs))

		got := g.OccupiedNearPair(l, d, nil)
		var want []lattice.Point
		for _, off := range DirtyOffsets(d) {
			if q := l.Add(off); g.Has(q) {
				want = append(want, q)
			}
		}
		sortPts(got)
		sortPts(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d cells, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: cell %d: got %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func sortPts(ps []lattice.Point) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}

// TestWindowMatchesPairMask: the one-pass 5×5 window extraction must agree
// with the per-direction PairMask extraction and the degree count on random
// configurations, including cells sitting right on the margin after grows.
func TestWindowMatchesPairMask(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 13))
	for trial := 0; trial < 300; trial++ {
		var pts []lattice.Point
		p := lattice.Point{}
		for i := 0; i < 30; i++ {
			pts = append(pts, p)
			p = p.Neighbor(lattice.Dir(rng.IntN(lattice.NumDirs)))
		}
		g := New(pts, minSlack)
		for _, l := range g.Points() {
			win := g.Window(l)
			if deg := bitsOn(uint32(win.NeighborMask())); deg != g.Degree(l) {
				t.Fatalf("trial %d cell %v: window degree %d, Grid.Degree %d", trial, l, deg, g.Degree(l))
			}
			for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
				if got, want := win.PairMask(d), g.PairMask(l, d); got != want {
					t.Fatalf("trial %d cell %v dir %v: window mask %08b, PairMask %08b", trial, l, d, got, want)
				}
				if has := win.NeighborMask()>>d&1 == 1; has != g.Has(l.Neighbor(d)) {
					t.Fatalf("trial %d cell %v dir %v: neighbor bit %v, Has %v", trial, l, d, has, !has)
				}
			}
		}
	}
}

func bitsOn(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// TestDirtyWindowsMatchesComposition: the fused super-window path must
// return exactly OccupiedNearPair's cells, each paired with its Window, on
// both the interior fast path and the near-border fallback. Packed() must
// also agree with the loop-assembled masks for every returned window.
func TestDirtyWindowsMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 23))
	for trial := 0; trial < 300; trial++ {
		var pts []lattice.Point
		p := lattice.Point{}
		for i := 0; i < 35; i++ {
			pts = append(pts, p)
			p = p.Neighbor(lattice.Dir(rng.IntN(lattice.NumDirs)))
		}
		g := New(pts, minSlack)
		l := pts[rng.IntN(len(pts))]
		d := lattice.Dir(rng.IntN(lattice.NumDirs))

		got := g.DirtyWindows(l, d, nil)
		wantCells := g.OccupiedNearPair(l, d, nil)
		if len(got) != len(wantCells) {
			t.Fatalf("trial %d: %d cells, want %d", trial, len(got), len(wantCells))
		}
		seen := map[lattice.Point]Window{}
		for _, cw := range got {
			seen[cw.P] = cw.Win
		}
		for _, q := range wantCells {
			win, ok := seen[q]
			if !ok {
				t.Fatalf("trial %d: cell %v missing from DirtyWindows", trial, q)
			}
			if want := g.Window(q); win != want {
				// Interior cells may come back as the canonical
				// all-neighbors-occupied sentinel instead of the true window.
				if win != NbrAllWindow || g.Degree(q) != 6 {
					t.Fatalf("trial %d: cell %v window %025b, want %025b", trial, q, win, want)
				}
			}
			pm := win.Packed()
			if pm.NeighborMask() != win.NeighborMask() {
				t.Fatalf("trial %d: packed neighbor mask mismatch at %v", trial, q)
			}
			for dd := lattice.Dir(0); dd < lattice.NumDirs; dd++ {
				if pm.PairMask(dd) != win.PairMask(dd) {
					t.Fatalf("trial %d: packed pair mask mismatch at %v dir %v", trial, q, dd)
				}
			}
		}
	}
}

// TestFlipPackedIsXORDelta: Packed is XOR-linear, so toggling one cell of
// any window changes its packed masks by exactly FlipPacked of that cell's
// offset — for all 25 offsets of the 5×5 square, over random windows. Offsets
// outside the square are read by no packed bit and flip nothing.
func TestFlipPackedIsXORDelta(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 31))
	for trial := 0; trial < 2000; trial++ {
		win := Window(rng.Uint32() & (1<<25 - 1))
		for dy := -2; dy <= 2; dy++ {
			for dx := -2; dx <= 2; dx++ {
				off := lattice.Point{X: dx, Y: dy}
				flipped := win ^ 1<<winPos(dx, dy)
				if got, want := win.Packed()^FlipPacked(off), flipped.Packed(); got != want {
					t.Fatalf("window %025b offset %v: Packed^FlipPacked %016x, Packed of flipped window %016x",
						win, off, got, want)
				}
			}
		}
	}
	for _, off := range []lattice.Point{{X: 3, Y: 0}, {X: 0, Y: -3}, {X: -3, Y: 3}} {
		if pm := FlipPacked(off); pm != 0 {
			t.Fatalf("offset %v outside the window flips %016x", off, pm)
		}
	}
}

// TestDirtyOccupancyMatchesOccupiedNearPair: bit k of DirtyOccupancy is set
// exactly for the dirty offsets OccupiedNearPair reports, on the interior
// fast path and the near-border fallback alike.
func TestDirtyOccupancyMatchesOccupiedNearPair(t *testing.T) {
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		if n := len(DirtyOffsets(d)); n > 32 {
			t.Fatalf("dir %v: %d dirty offsets do not fit a uint32", d, n)
		}
	}
	rng := rand.New(rand.NewPCG(37, 41))
	for trial := 0; trial < 300; trial++ {
		var pts []lattice.Point
		p := lattice.Point{}
		for i := 0; i < 40; i++ {
			pts = append(pts, p)
			p = p.Neighbor(lattice.Dir(rng.IntN(lattice.NumDirs)))
		}
		g := New(pts, minSlack)
		// Query points up to 6 cells off the configuration reach past the
		// window border, so the fallback path is exercised too.
		l := pts[rng.IntN(len(pts))].Add(lattice.Point{X: rng.IntN(13) - 6, Y: rng.IntN(13) - 6})
		d := lattice.Dir(rng.IntN(lattice.NumDirs))
		occ := g.DirtyOccupancy(l, d)
		var got []lattice.Point
		for k, off := range DirtyOffsets(d) {
			if occ>>k&1 == 1 {
				got = append(got, l.Add(off))
			}
		}
		want := g.OccupiedNearPair(l, d, nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d occupied dirty cells, OccupiedNearPair %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: cell %d: got %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}
