package grid

import (
	"math/bits"

	"sops/internal/lattice"
)

// Per-cell payload: an optional byte of rule state (an orientation spin, a
// phase bit, …) attached to every occupied cell, stored in a dense array
// parallel to the occupancy bits — pay[bitIndex(p)] is the payload of p. The
// array obeys the same window discipline as the occupancy words: it is
// reallocated by reshape, preserved across grow, carried by Move, and
// cleared by Remove, so the (occupancy, payload) pair of every particle
// survives any sequence of window reallocations. Unoccupied cells always
// read payload 0.
//
// Payload storage is off until EnablePayload so the compression hot paths
// (which never touch payloads) pay nothing for the feature.

// EnablePayload allocates the per-cell payload array (all zero). It is
// idempotent.
func (g *Grid) EnablePayload() {
	if g.pay == nil {
		g.pay = make([]uint8, len(g.words)<<6)
	}
}

// PayloadEnabled reports whether the payload array is allocated.
func (g *Grid) PayloadEnabled() bool { return g.pay != nil }

// Payload returns the payload byte of p, or 0 when p is unoccupied, outside
// the window, or payloads are disabled.
func (g *Grid) Payload(p lattice.Point) uint8 {
	if g.pay == nil || !g.inWindow(p) {
		return 0
	}
	return g.pay[g.bitIndex(p)]
}

// SetPayload writes the payload byte of the occupied cell p. Payloads must
// be enabled and p occupied; both are programmer errors otherwise, caught by
// the occupancy panic below.
func (g *Grid) SetPayload(p lattice.Point, v uint8) {
	if !g.Has(p) {
		panic("grid: SetPayload on unoccupied cell")
	}
	g.pay[g.bitIndex(p)] = v
}

// SameNeighborMask returns the 6-bit mask (bit d = direction u(d), matching
// Window.NeighborMask order) of the occupied neighbors of l whose payload
// equals s. l must be occupied: the margin invariant then keeps all six
// neighbors inside the window.
func (g *Grid) SameNeighborMask(l lattice.Point, s uint8) uint8 {
	idx := g.bitIndex(l)
	var m uint8
	for d, delta := range g.nbrDelta {
		j := idx + delta
		if g.bit(j) != 0 && g.pay[j] == s {
			m |= 1 << d
		}
	}
	return m
}

// PairSame filters the pair mask m of the move (l, l′ = l+d) down to the
// cells whose payload equals s: the "same-state submask" a payload rule's
// Hamiltonian tables are indexed by. l must be occupied (margin invariant);
// m must be g.PairMask(l, d).
func (g *Grid) PairSame(l lattice.Point, d lattice.Dir, m Mask, s uint8) Mask {
	if m == 0 {
		return 0
	}
	idx := g.bitIndex(l)
	deltas := &g.maskDelta[d]
	var same Mask
	for k := 0; k < 8; k++ {
		if m>>uint(k)&1 == 1 && g.pay[idx+deltas[k]] == s {
			same |= 1 << uint(k)
		}
	}
	return same
}

// SameWindow returns the 5×5 occupancy Window centered on l restricted to
// the cells whose payload is s: bit (dy+2)·5 + (dx+2) is set iff l + (dx, dy)
// is occupied and holds state s. Its Packed form carries, byte for byte, what
// the per-direction payload queries return for a particle of state s at l —
// byte d is PairSame(l, d, PairMask(l, d), s) and the neighbor byte is
// SameNeighborMask(l, s) — and, like the occupancy window, it is XOR-linear
// in the cells it reads (FlipPacked). l must be occupied (margin invariant).
func (g *Grid) SameWindow(l lattice.Point, s uint8) Window {
	sb := g.stride << 6
	base := g.bitIndex(l) - 2*sb - 2
	win := g.Window(l)
	var same Window
	for r := 0; r < 5; r++ {
		for row := uint32(win>>(5*r)) & 31; row != 0; row &= row - 1 {
			c := bits.TrailingZeros32(row)
			if g.pay[base+r*sb+c] == s {
				same |= 1 << (5*r + c)
			}
		}
	}
	return same
}

// NeighborStates is the payload of a cell's six neighbors read in one pass:
// the occupancy of neighbor u(d) in bit d of occ, its payload (0 when
// unoccupied) in byte d of st. Same answers SameNeighborMask for any state
// from it without further grid reads.
type NeighborStates struct {
	occ uint8
	st  uint64
}

// NeighborStates reads the occupancy and payload of l's six neighbors. l
// must be occupied: the margin invariant keeps the neighbors in the window.
func (g *Grid) NeighborStates(l lattice.Point) NeighborStates {
	idx := g.bitIndex(l)
	var ns NeighborStates
	for d, delta := range g.nbrDelta {
		j := idx + delta
		ns.occ |= uint8(g.bit(j)) << d
		ns.st |= uint64(g.pay[j]) << (8 * d)
	}
	return ns
}

// Same returns the occupied neighbors whose payload is t, bit d = u(d): the
// value SameNeighborMask(l, t) had when ns was read. It compares all six
// bytes at once: the high bit of each byte of z is set iff that byte of x
// is zero (the exact zero-byte test, with no borrow between bytes), and the
// multiply gathers bit 8d to bit 56+d.
func (ns NeighborStates) Same(t uint8) uint8 {
	const lo = 0x0000_0101_0101_0101 // bit 0 of bytes 0–5
	const low7 = 0x7f7f_7f7f_7f7f_7f7f
	x := ns.st ^ uint64(t)*lo
	z := ^((x&low7 + low7) | x | low7)
	return uint8((z>>7&lo)*0x0102_0408_1020_4080>>56) & ns.occ
}
