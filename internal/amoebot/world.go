// Package amoebot implements the geometric amoebot model of §2.1: anonymous
// constant-memory particles on the triangular lattice that move by
// expansions and contractions, activated by a fair asynchronous scheduler
// driven by Poisson clocks, with atomic activations and local-only
// communication. Algorithm A of §3.2 (the distributed translation of Markov
// chain M) is provided as the Compression protocol.
package amoebot

import (
	"fmt"
	"math/rand/v2"

	"sops/internal/config"
	"sops/internal/frame"
	"sops/internal/grid"
	"sops/internal/lattice"
	"sops/internal/rule"
)

// ParticleID identifies a particle within a World. IDs exist only for the
// simulator's bookkeeping; the particles themselves are anonymous and the
// protocol API exposes no identity information.
type ParticleID int

// Particle is one amoebot. A contracted particle occupies a single node
// (Head == Tail); an expanded particle occupies two adjacent nodes.
type Particle struct {
	id   ParticleID
	head lattice.Point
	tail lattice.Point
	// flag is the single bit of persistent memory Algorithm A requires
	// between the expansion and contraction activations (§3.3).
	flag bool
	// crashed particles cease activating entirely (§3.3 crash faults).
	crashed bool
}

// Expanded reports whether the particle currently occupies two nodes.
func (p *Particle) Expanded() bool { return p.head != p.tail }

// Head returns the node the particle last expanded into (equal to Tail when
// contracted).
func (p *Particle) Head() lattice.Point { return p.head }

// Tail returns the particle's tail node.
func (p *Particle) Tail() lattice.Point { return p.tail }

// Crashed reports whether the particle has crash-failed.
func (p *Particle) Crashed() bool { return p.crashed }

// cell records which particle occupies a lattice node and with which end.
type cell struct {
	id     ParticleID
	isHead bool // true if this node holds the head of an expanded particle
}

// World is the shared lattice substrate. All mutation goes through expand
// and contract so the occupancy invariants hold at all times. World is not
// safe for concurrent use; the concurrent scheduler serializes activations
// with a mutex, which matches the model's atomic-action semantics.
type World struct {
	particles []*Particle
	cells     map[lattice.Point]cell
	// tails is the bit-packed occupancy of all particle tails. It backs the
	// N*(·) neighborhood evaluations of Algorithm A (tail degrees and the
	// Property 1/2 checks) with allocation-free mask lookups; the cells map
	// remains the source of truth for particle identity and head occupancy.
	tails *grid.Grid

	activations uint64
	moves       uint64 // completed relocations (contract-to-head events)
	rotations   uint64 // applied payload changes (payload rules only)

	// round bookkeeping: a round completes once every non-crashed particle
	// has activated at least once since the round began (§2.1). live counts
	// non-crashed particles; roundStamp[id] is rounds+1 once particle id has
	// activated in the current round, and activatedN counts those particles.
	// Crashes mid-round can make the round boundary approximate by at most
	// one activation per crash.
	rounds        uint64
	live          int
	expandedCount int
	roundStamp    []uint64
	activatedN    int

	// act is the Activation handed to the protocol, reused across
	// activations (which are serialized) so none allocates.
	act Activation

	mlog *frame.MoveLog // accepted-move tap for delta frame encoding; may be nil
}

// SetMoveLog attaches a move log that records every completed relocation
// and payload change (for delta frame encoding). Pass nil to detach. Only
// meaningful under a sequential scheduler: the log is not synchronized.
func (w *World) SetMoveLog(l *frame.MoveLog) { w.mlog = l }

// Tails exposes the bit-packed tail-occupancy grid for read-only
// observation; mutating it corrupts the world.
func (w *World) Tails() *grid.Grid { return w.tails }

// NewWorld places one contracted particle on every occupied node of σ0,
// which must be non-empty and connected.
func NewWorld(sigma0 *config.Config) (*World, error) {
	if sigma0.N() == 0 {
		return nil, fmt.Errorf("amoebot: empty starting configuration")
	}
	if !sigma0.Connected() {
		return nil, fmt.Errorf("amoebot: starting configuration must be connected")
	}
	w := &World{
		cells:      make(map[lattice.Point]cell, sigma0.N()),
		tails:      sigma0.ToGrid(),
		roundStamp: make([]uint64, sigma0.N()),
	}
	for i, pt := range sigma0.Points() {
		p := &Particle{id: ParticleID(i), head: pt, tail: pt}
		w.particles = append(w.particles, p)
		w.cells[pt] = cell{id: p.id}
	}
	w.live = len(w.particles)
	return w, nil
}

// N returns the number of particles.
func (w *World) N() int { return len(w.particles) }

// Activations returns the total number of particle activations executed.
func (w *World) Activations() uint64 { return w.activations }

// Moves returns the number of completed relocations (expansions that
// contracted to the new node).
func (w *World) Moves() uint64 { return w.moves }

// Rotations returns the number of applied payload changes (zero unless the
// protocol runs a payload rule over a seeded payload).
func (w *World) Rotations() uint64 { return w.rotations }

// SeedPayload enables per-particle payload state and assigns every particle
// an independent uniform state in [0, states), drawn from a generator
// seeded with seed in particle-id order — deterministic for a fixed
// (σ0, states, seed). Payload rules require it before the first activation.
func (w *World) SeedPayload(states int, seed uint64) {
	w.tails.EnablePayload()
	rng := rand.New(rand.NewPCG(seed, 0x7f4a7c159e3779b9))
	for _, p := range w.particles {
		w.tails.SetPayload(p.tail, uint8(rng.IntN(states)))
	}
}

// Energy returns H(σ) of the rule over the tail configuration (payloads
// included): the order-parameter observable for payload rules, e(σ) for
// compression.
func (w *World) Energy(ru *rule.Rule) int { return ru.Energy(w.tails) }

// Payload returns the payload state at a particle's tail.
func (w *World) Payload(id ParticleID) uint8 { return w.tails.Payload(w.particles[id].tail) }

// Rounds returns the number of completed asynchronous rounds: maximal
// periods in which every live particle activated at least once.
func (w *World) Rounds() uint64 { return w.rounds }

// Particle returns the particle with the given id.
func (w *World) Particle(id ParticleID) *Particle { return w.particles[id] }

// AllContracted reports whether no particle is currently expanded. At such
// instants the world corresponds exactly to a state of Markov chain M, and
// the long-run distribution of configurations observed at these instants
// matches π (the raw activation-time average over-weights configurations
// with many expansion opportunities; see EXPERIMENTS.md).
func (w *World) AllContracted() bool { return w.expandedCount == 0 }

// Config returns the current configuration: the tails of all particles,
// matching the paper's convention that heads of expanded particles are not
// part of the configuration (§2.2, footnote 2).
func (w *World) Config() *config.Config {
	pts := make([]lattice.Point, 0, len(w.particles))
	for _, p := range w.particles {
		pts = append(pts, p.tail)
	}
	return config.New(pts...)
}

// Crash marks a particle crash-failed; it will never activate again. A
// contracted crashed particle acts as a fixed obstacle the rest of the
// system compresses around (§3.3).
func (w *World) Crash(id ParticleID) {
	if p := w.particles[id]; !p.crashed {
		p.crashed = true
		w.live--
	}
}

// CrashFraction crashes ⌊frac·n⌋ distinct contracted particles chosen with
// rng and returns their ids.
func (w *World) CrashFraction(rng *rand.Rand, frac float64) []ParticleID {
	k := int(frac * float64(len(w.particles)))
	perm := rng.Perm(len(w.particles))
	var out []ParticleID
	for _, i := range perm {
		if len(out) == k {
			break
		}
		p := w.particles[i]
		if p.Expanded() || p.crashed {
			continue
		}
		w.Crash(p.id)
		out = append(out, p.id)
	}
	return out
}

// occupied reports whether any particle occupies the node (head or tail).
func (w *World) occupied(pt lattice.Point) bool {
	_, ok := w.cells[pt]
	return ok
}

// tailAt reports whether a tail of a particle other than excl occupies pt.
// Heads of expanded particles are invisible, implementing the N*(·) sets of
// Algorithm A.
func (w *World) tailAt(pt lattice.Point, excl ParticleID) bool {
	c, ok := w.cells[pt]
	return ok && !c.isHead && c.id != excl
}

// tailView adapts the world to move.Occupancy: occupancy by tails only,
// excluding one particle — exactly the neighborhood Algorithm A's expanded
// branch evaluates.
type tailView struct {
	w    *World
	excl ParticleID
}

func (v tailView) Has(pt lattice.Point) bool { return v.w.tailAt(pt, v.excl) }

// expand moves a contracted particle's head into the unoccupied adjacent
// node in direction d.
func (w *World) expand(p *Particle, d lattice.Dir) {
	if p.Expanded() {
		panic("amoebot: expand on expanded particle")
	}
	target := p.tail.Neighbor(d)
	if w.occupied(target) {
		panic("amoebot: expand into occupied node")
	}
	p.head = target
	w.cells[target] = cell{id: p.id, isHead: true}
	w.expandedCount++
}

// contractToHead completes a relocation: the particle becomes contracted at
// its head node.
func (w *World) contractToHead(p *Particle) {
	if !p.Expanded() {
		panic("amoebot: contract on contracted particle")
	}
	delete(w.cells, p.tail)
	w.tails.Move(p.tail, p.head)
	if w.mlog != nil {
		w.mlog.Moved(p.tail, p.head, w.tails.Payload(p.head))
	}
	p.tail = p.head
	w.cells[p.head] = cell{id: p.id}
	w.moves++
	w.expandedCount--
}

// contractToTail aborts a relocation: the particle withdraws its head.
func (w *World) contractToTail(p *Particle) {
	if !p.Expanded() {
		panic("amoebot: contract on contracted particle")
	}
	delete(w.cells, p.head)
	p.head = p.tail
	w.expandedCount--
}

// hasExpandedNeighbor reports whether any node adjacent to pt holds a head
// or tail of an expanded particle other than excl.
func (w *World) hasExpandedNeighbor(pt lattice.Point, excl ParticleID) bool {
	for d := lattice.Dir(0); d < lattice.NumDirs; d++ {
		c, ok := w.cells[pt.Neighbor(d)]
		if !ok || c.id == excl {
			continue
		}
		if w.particles[c.id].Expanded() {
			return true
		}
	}
	return false
}

// activate runs one atomic activation of particle id under the given
// protocol, with rng as the particle's private randomness source.
func (w *World) activate(id ParticleID, proto Protocol, rng *rand.Rand) {
	p := w.particles[id]
	if p.crashed {
		return
	}
	w.activations++
	w.act = Activation{w: w, p: p, rng: rng}
	proto.Activate(&w.act)
	// Round bookkeeping.
	if w.roundStamp[id] != w.rounds+1 {
		w.roundStamp[id] = w.rounds + 1
		w.activatedN++
	}
	if w.activatedN >= w.live {
		w.rounds++
		w.activatedN = 0
	}
}

// CheckInvariants verifies structural soundness of the world: every cell
// entry matches its particle, no node is doubly occupied, expanded particles
// occupy adjacent nodes. It is called from tests; the cost is O(n).
func (w *World) CheckInvariants() error {
	seen := make(map[lattice.Point]ParticleID, len(w.cells))
	for _, p := range w.particles {
		if p.Expanded() {
			if !p.head.Adjacent(p.tail) {
				return fmt.Errorf("particle %d expanded across non-adjacent nodes %v,%v", p.id, p.head, p.tail)
			}
			if c, ok := w.cells[p.head]; !ok || c.id != p.id || !c.isHead {
				return fmt.Errorf("particle %d head cell mismatch at %v", p.id, p.head)
			}
		}
		if c, ok := w.cells[p.tail]; !ok || c.id != p.id || c.isHead {
			return fmt.Errorf("particle %d tail cell mismatch at %v", p.id, p.tail)
		}
		for _, pt := range []lattice.Point{p.head, p.tail} {
			if prev, dup := seen[pt]; dup && prev != p.id {
				return fmt.Errorf("node %v occupied by particles %d and %d", pt, prev, p.id)
			}
			seen[pt] = p.id
		}
	}
	if len(w.cells) != len(seen) {
		return fmt.Errorf("cell table has %d entries, particles occupy %d nodes", len(w.cells), len(seen))
	}
	if w.tails.N() != len(w.particles) {
		return fmt.Errorf("tail grid holds %d cells, want %d", w.tails.N(), len(w.particles))
	}
	for _, p := range w.particles {
		if !w.tails.Has(p.tail) {
			return fmt.Errorf("tail grid missing particle %d tail %v", p.id, p.tail)
		}
	}
	return nil
}
