package amoebot

import (
	"math/rand/v2"
	"sync"
)

// PoissonScheduler activates particles according to independent Poisson
// clocks (§3.2): each particle draws exponentially distributed delays
// between its activations, so regardless of history every live particle is
// equally likely to activate next (with equal rates), faithfully emulating
// the uniform selection of Markov chain M without global coordination.
// The simulation is sequential and deterministic given the seed.
type PoissonScheduler struct {
	w     *World
	proto Protocol
	rng   *rand.Rand
	rates []float64
	queue eventHeap
	now   float64
}

type event struct {
	t  float64
	id ParticleID
}

// eventHeap is a binary min-heap of events by time. It sifts exactly as
// container/heap does — same comparisons, same swaps — so the queue order,
// and with it every trajectory, matches the interface-based heap, without
// boxing an event on every push and pop.
type eventHeap []event

// init establishes the heap invariant (container/heap.Init).
func (h eventHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// push adds e (container/heap.Push).
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event (container/heap.Pop).
func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

func (h eventHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].t < h[i].t) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].t < h[j1].t {
			j = j2 // right child
		}
		if !(h[j].t < h[i].t) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// SchedulerOption customizes a PoissonScheduler.
type SchedulerOption func(*PoissonScheduler)

// WithRates sets per-particle Poisson rates (mean activations per unit
// time). The paper notes heterogeneous constant rates leave the stationary
// distribution unchanged (§3.2); this option exists to demonstrate that.
// Missing entries default to 1.
func WithRates(rates map[ParticleID]float64) SchedulerOption {
	return func(s *PoissonScheduler) {
		for id, r := range rates {
			if int(id) < len(s.rates) && r > 0 {
				s.rates[id] = r
			}
		}
	}
}

// NewPoissonScheduler creates a scheduler driving world w under proto.
func NewPoissonScheduler(w *World, proto Protocol, seed uint64, opts ...SchedulerOption) *PoissonScheduler {
	s := &PoissonScheduler{
		w:     w,
		proto: proto,
		rng:   rand.New(rand.NewPCG(seed, 0x5bd1e995)),
		rates: make([]float64, w.N()),
	}
	for i := range s.rates {
		s.rates[i] = 1
	}
	for _, o := range opts {
		o(s)
	}
	s.queue = make(eventHeap, 0, w.N())
	for _, p := range w.particles {
		s.queue = append(s.queue, event{t: s.rng.ExpFloat64() / s.rates[p.id], id: p.id})
	}
	s.queue.init()
	return s
}

// Time returns the current simulated (continuous) time.
func (s *PoissonScheduler) Time() float64 { return s.now }

// StepActivation activates the next particle due. It reports false when no
// live particle remains to schedule.
func (s *PoissonScheduler) StepActivation() bool {
	for len(s.queue) > 0 {
		e := s.queue.pop()
		s.now = e.t
		p := s.w.particles[e.id]
		if p.crashed {
			// Crashed clocks are removed from the queue permanently.
			continue
		}
		s.w.activate(e.id, s.proto, s.rng)
		s.queue.push(event{t: s.now + s.rng.ExpFloat64()/s.rates[e.id], id: e.id})
		return true
	}
	return false
}

// RunActivations executes k activations (fewer if all particles crash).
func (s *PoissonScheduler) RunActivations(k uint64) {
	for i := uint64(0); i < k; i++ {
		if !s.StepActivation() {
			return
		}
	}
}

// RunRounds executes activations until r more asynchronous rounds complete.
func (s *PoissonScheduler) RunRounds(r uint64) {
	target := s.w.Rounds() + r
	for s.w.Rounds() < target {
		if !s.StepActivation() {
			return
		}
	}
}

// UniformScheduler activates a uniformly random live particle each step:
// the activation distribution the Poisson clocks realize, offered directly
// for cheap simulation. Deterministic given the seed.
type UniformScheduler struct {
	w     *World
	proto Protocol
	rng   *rand.Rand
}

// NewUniformScheduler creates a uniform random-sequential scheduler.
func NewUniformScheduler(w *World, proto Protocol, seed uint64) *UniformScheduler {
	return &UniformScheduler{w: w, proto: proto, rng: rand.New(rand.NewPCG(seed, 0xcafef00d))}
}

// StepActivation activates one uniformly random particle (crashed particles
// consume no activations). It reports false if every particle has crashed.
func (s *UniformScheduler) StepActivation() bool {
	for attempts := 0; attempts < 64*s.w.N(); attempts++ {
		id := ParticleID(s.rng.IntN(s.w.N()))
		if s.w.particles[id].crashed {
			continue
		}
		s.w.activate(id, s.proto, s.rng)
		return true
	}
	return false
}

// RunActivations executes k activations.
func (s *UniformScheduler) RunActivations(k uint64) {
	for i := uint64(0); i < k; i++ {
		if !s.StepActivation() {
			return
		}
	}
}

// RunConcurrent drives the world with `workers` goroutines, each activating
// uniformly random particles from a private RNG until it has performed
// perWorker activations. Activations are serialized by a mutex, realizing
// the model's assumption that concurrent executions are equivalent to a
// sequential ordering of atomic actions (§2.1). The interleaving — and
// therefore the trajectory — is nondeterministic; invariants and stationary
// statistics are not.
func RunConcurrent(w *World, proto Protocol, seed uint64, workers int, perWorker uint64) {
	if workers < 1 {
		workers = 1
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(stream uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, stream))
			for i := uint64(0); i < perWorker; i++ {
				id := ParticleID(rng.IntN(w.N()))
				mu.Lock()
				if !w.particles[id].crashed {
					w.activate(id, proto, rng)
				}
				mu.Unlock()
			}
		}(uint64(wk) + 1)
	}
	wg.Wait()
}
