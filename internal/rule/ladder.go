package rule

import (
	"fmt"
	"math"

	"sops/internal/grid"
	"sops/internal/lattice"
)

// Ladder is a Rule's compiled pricing tables rebuilt at a different bias λ:
// the λ-power ladder plus the 256-entry acceptance and slot-weight tables,
// over the same guard and Hamiltonian deltas. Biased engines hold one
// Ladder per effective λ and price every proposal through it; the Rule's
// own tables stay the fixed-λ fast path. Ladders are immutable after
// construction and safe for concurrent use.
type Ladder struct {
	r      *Rule
	lambda float64

	acc [256]float64
	w   [256]float64

	pow    [2*deltaBound + 1]float64
	powCap [2*deltaBound + 1]float64
}

// LadderFor rebuilds the rule's pricing tables at bias λ. It rejects λ that
// ValidateLambda rejects.
func (r *Rule) LadderFor(lambda float64) (*Ladder, error) {
	if err := ValidateLambda(lambda); err != nil {
		return nil, err
	}
	l := &Ladder{r: r, lambda: lambda}
	for k := -deltaBound; k <= deltaBound; k++ {
		l.pow[k+deltaBound] = math.Pow(lambda, float64(k))
		l.powCap[k+deltaBound] = math.Min(1, l.pow[k+deltaBound])
	}
	for m := 0; m < 256; m++ {
		if r.valid[m] {
			l.acc[m] = l.pow[int(r.occ[m])+deltaBound]
			l.w[m] = l.powCap[int(r.occ[m])+deltaBound]
		}
	}
	return l, nil
}

// MustLadderFor is LadderFor but panics on error; for bias schedules, whose
// contract already requires every returned λ to be ladder-safe.
func (r *Rule) MustLadderFor(lambda float64) *Ladder {
	l, err := r.LadderFor(lambda)
	if err != nil {
		panic(err)
	}
	return l
}

// Lambda returns the bias the ladder was built at.
func (l *Ladder) Lambda() float64 { return l.lambda }

// Accept is Rule.Accept at the ladder's λ.
func (l *Ladder) Accept(m grid.Mask) float64 { return l.acc[m] }

// Weight is Rule.Weight at the ladder's λ.
func (l *Ladder) Weight(m grid.Mask) float64 { return l.w[m] }

// WeightTable returns the ladder's stateless slot-weight table, indexed by
// pair mask (Rule.WeightTable at the ladder's λ). Callers must not modify
// it.
func (l *Ladder) WeightTable() *[256]float64 { return &l.w }

// AcceptPay is Rule.AcceptPay at the ladder's λ.
func (l *Ladder) AcceptPay(m, same grid.Mask) float64 {
	if !l.r.valid[m] {
		return 0
	}
	return l.pow[int(l.r.occ[m])+int(l.r.pay[same])+deltaBound]
}

// WeightPay is Rule.WeightPay at the ladder's λ.
func (l *Ladder) WeightPay(m, same grid.Mask) float64 {
	if !l.r.valid[m] {
		return 0
	}
	return l.powCap[int(l.r.occ[m])+int(l.r.pay[same])+deltaBound]
}

// RotAccept is Rule.RotAccept at the ladder's λ.
func (l *Ladder) RotAccept(delta int) float64 { return l.pow[delta+deltaBound] }

// RotWeight is Rule.RotWeight at the ladder's λ.
func (l *Ladder) RotWeight(delta int) float64 { return l.powCap[delta+deltaBound] }

// LadderCache memoizes LadderFor over the λ values a bias schedule emits.
// Schedules take few distinct values (foraging takes two), so lookup is a
// linear scan over the values seen so far. A cache is NOT safe for
// concurrent use — engines keep one per goroutine (per stripe, for the
// sharded engine); the Ladders themselves may be shared freely.
type LadderCache struct {
	r       *Rule
	ladders []*Ladder
}

// NewLadderCache returns an empty cache over r's ladders.
func NewLadderCache(r *Rule) *LadderCache {
	if r == nil {
		panic("rule: NewLadderCache on nil rule")
	}
	return &LadderCache{r: r}
}

// Get returns the rule's ladder at λ, building it on first sight. It panics
// on λ that ValidateLambda rejects: bias schedules promise ladder-safe
// values, so an unsafe λ here is a schedule bug.
func (c *LadderCache) Get(lambda float64) *Ladder {
	for _, l := range c.ladders {
		if l.lambda == lambda {
			return l
		}
	}
	l := c.r.MustLadderFor(lambda)
	c.ladders = append(c.ladders, l)
	return l
}

// At returns the ladder pricing a proposal by the particle at site during
// the epoch containing step: Get(BiasAt(step, site)).
func (c *LadderCache) At(step uint64, site lattice.Point) *Ladder {
	return c.Get(c.r.BiasAt(step, site))
}

// Len returns the number of distinct λ values cached so far.
func (c *LadderCache) Len() int { return len(c.ladders) }

// String aids debugging.
func (c *LadderCache) String() string {
	return fmt.Sprintf("LadderCache(%s, %d ladders)", c.r.Name(), len(c.ladders))
}
