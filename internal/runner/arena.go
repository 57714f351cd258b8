package runner

import (
	"fmt"

	"sops/internal/chain"
	"sops/internal/config"
	"sops/internal/kmc"
	"sops/internal/lattice"
	"sops/internal/metrics"
	"sops/internal/rule"
)

// Arena is a reusable execution context for sequential runs. A worker that
// executes many (options, seed) tasks back to back keeps one Arena and calls
// its Compress instead of the package function: compiled rules are cached,
// deterministic start shapes are generated once per (shape, n), and the
// chain/kMC engines, grid, index buffers, and the Result itself are recycled
// via the engines' Reset, so steady-state task execution performs no
// cross-task allocation (asserted by TestArenaCompressZeroAlloc).
//
// The returned Result — including its Points and Snapshots slices — is owned
// by the arena and valid only until the next Compress call; callers that
// retain results must copy them. Arena results differ from the package
// Compress in exactly one field: Rendering is left empty (the ASCII drawing
// exists for interactive use and would dominate the task's allocations).
// An Arena is not safe for concurrent use; use one per worker goroutine.
type Arena struct {
	rules  map[arenaRuleKey]*rule.Rule
	starts map[arenaStartKey][]lattice.Point

	chain *chain.Chain
	kmc   *kmc.Chain

	res    Result
	ptsBuf []lattice.Point
}

type arenaRuleKey struct {
	name   string
	lambda float64
	states int
	// schedule is the bias-schedule identity (ForageSpec.cacheKey): two
	// forage rules at equal (name, λ, states) but different food layouts
	// compile to different rules and must not share a cache slot.
	schedule string
}

type arenaStartKey struct {
	shape StartShape
	n     int
}

// NewArena creates an empty arena.
func NewArena() *Arena {
	return &Arena{
		rules:  make(map[arenaRuleKey]*rule.Rule),
		starts: make(map[arenaStartKey][]lattice.Point),
	}
}

// Compress runs one task like the package-level Compress, reusing the
// arena's engines and buffers. Runs the arena cannot host — distributed
// runs, stripe-sharded runs, and SVG snapshotting — fall through to the
// plain path, which validates them identically.
func (a *Arena) Compress(opts Options) (*Result, error) {
	engine, err := opts.engine()
	if err != nil {
		return nil, err
	}
	if engine == EngineAmoebot || opts.Shards > 1 || opts.SnapshotSVG ||
		opts.CrashFraction != 0 || opts.Workers > 1 || opts.DeltaFunc != nil {
		// DeltaFunc needs the move-log/live-grid tap the arena's lean
		// snapshot path does not wire; dropping the callback silently would
		// starve delta consumers, so those runs take the plain path too.
		return Compress(opts)
	}
	ru, err := a.ruleFor(opts)
	if err != nil {
		return nil, err
	}
	pts, err := a.startPoints(opts)
	if err != nil {
		return nil, err
	}
	c, err := a.engineFor(engine, pts, ru, opts.Seed)
	if err != nil {
		return nil, err
	}

	total := opts.iterations()
	a.res = Result{
		N: opts.N, Lambda: opts.Lambda, Rule: ru.Name(),
		Points:    a.res.Points[:0],
		Snapshots: a.res.Snapshots[:0],
	}
	res := &a.res
	if opts.SnapshotEvery == 0 && opts.Interrupt == nil {
		// The hot sweep path: no per-interval bookkeeping, no closures.
		c.Run(total)
	} else if err := runWithSnapshots(total, 1, opts, func(k uint64) {
		c.Run(k)
	}, func(done uint64) Snapshot {
		s := Snapshot{
			Iteration: done,
			Perimeter: c.Perimeter(),
			Edges:     c.Edges(),
			Energy:    c.Energy(),
			Alpha:     metrics.Alpha(c.Perimeter(), opts.N),
			Beta:      metrics.Beta(c.Perimeter(), opts.N),
			HoleFree:  c.HoleFree(),
			Bias:      snapBias(ru, done),
		}
		if opts.SnapshotFunc != nil {
			opts.SnapshotFunc(s)
		}
		return s
	}, res); err != nil {
		return nil, err
	}

	res.Iterations = c.Steps()
	res.Moves = c.Accepted()
	res.Rotations = c.Rotations()
	res.Energy = c.Energy()
	res.Perimeter = c.Perimeter()
	res.Edges = c.Edges()
	res.Alpha = metrics.Alpha(res.Perimeter, opts.N)
	res.Beta = metrics.Beta(res.Perimeter, opts.N)
	res.HoleFree = c.HoleFree()
	g := a.grid(engine)
	res.Triangles = g.Triangles()
	a.ptsBuf = g.AppendPoints(a.ptsBuf[:0])
	for _, p := range a.ptsBuf {
		res.Points = append(res.Points, Point{X: p.X, Y: p.Y})
	}
	return res, nil
}

// ruleFor returns the cached compiled rule for the task's rule axis,
// compiling it on first use. Rules are immutable after compilation, so
// sharing one across runs (and engines) is sound.
func (a *Arena) ruleFor(opts Options) (*rule.Rule, error) {
	return a.ruleWith(opts.Rule, opts.Lambda, opts.RuleStates, opts.Forage)
}

// Rule returns the arena's cached compiled rule for (name, λ, states),
// compiling on first use. Forage rules compile with the default schedule;
// use ForageRule for an explicit one.
func (a *Arena) Rule(name string, lambda float64, states int) (*rule.Rule, error) {
	return a.ruleWith(name, lambda, states, nil)
}

// ForageRule returns the arena's cached foraging rule for (λ, schedule),
// compiling on first use.
func (a *Arena) ForageRule(lambda float64, spec *ForageSpec) (*rule.Rule, error) {
	return a.ruleWith(RuleForage, lambda, 0, spec)
}

func (a *Arena) ruleWith(name string, lambda float64, states int, forage *ForageSpec) (*rule.Rule, error) {
	k := arenaRuleKey{name: name, lambda: lambda, states: states, schedule: forage.cacheKey()}
	if ru, ok := a.rules[k]; ok {
		return ru, nil
	}
	ru, err := NewRule(name, lambda, states, forage)
	if err != nil {
		return nil, err
	}
	a.rules[k] = ru
	return ru, nil
}

// Sequential readies the arena's engine of the named kind over the given
// start shape and returns it, reusing the cached start points and resetting
// the engine in place like Compress does. The engine is valid until the
// arena's next Compress or Sequential call; callers drive it directly
// (scaling and mixing scenarios, which need RunUntil and mid-run reads).
func (a *Arena) Sequential(engine string, shape StartShape, n int, ru *rule.Rule, seed uint64) (Sequential, error) {
	if engine != EngineChain && engine != EngineKMC && engine != "" {
		return nil, fmt.Errorf("sops: engine %q is not sequential (want %s|%s)", engine, EngineChain, EngineKMC)
	}
	pts, err := a.startPoints(Options{Start: shape, N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	return a.engineFor(engine, pts, ru, seed)
}

// startPoints returns the task's starting configuration as a canonical
// point list. Deterministic shapes (line, spiral) are seed-independent and
// cached per (shape, n); randomized shapes are rebuilt from the seed.
func (a *Arena) startPoints(opts Options) ([]lattice.Point, error) {
	shape := opts.Start
	if shape == "" {
		shape = StartLine
	}
	deterministic := shape == StartLine || shape == StartSpiral
	k := arenaStartKey{shape: shape, n: opts.N}
	if deterministic {
		if pts, ok := a.starts[k]; ok {
			return pts, nil
		}
	}
	cfg, err := NewStartConfig(shape, opts.N, opts.Seed)
	if err != nil {
		return nil, err
	}
	pts := cfg.Points()
	if deterministic {
		a.starts[k] = pts
	}
	return pts, nil
}

// engineFor readies the requested engine over the starting points: the
// first task of each engine kind constructs it, every later task resets it
// in place (proven bit-identical to fresh construction by the engines' own
// reset tests).
func (a *Arena) engineFor(engine string, pts []lattice.Point, ru *rule.Rule, seed uint64) (Sequential, error) {
	switch engine {
	case EngineChain, "":
		if a.chain == nil {
			c, err := chain.NewWithRule(config.New(pts...), ru, seed)
			if err != nil {
				return nil, err
			}
			a.chain = c
			return c, nil
		}
		if err := a.chain.Reset(pts, ru, seed); err != nil {
			return nil, err
		}
		return a.chain, nil
	case EngineKMC:
		if a.kmc == nil {
			c, err := kmc.NewWithRule(config.New(pts...), ru, seed)
			if err != nil {
				return nil, err
			}
			a.kmc = c
			return c, nil
		}
		if err := a.kmc.Reset(pts, ru, seed); err != nil {
			return nil, err
		}
		return a.kmc, nil
	}
	// Unreachable: Compress resolved the engine before calling here.
	return NewSequentialWithRule(engine, config.New(pts...), ru, seed)
}

func (a *Arena) grid(engine string) gridReader {
	if engine == EngineKMC {
		return a.kmc.Grid()
	}
	return a.chain.Grid()
}

// gridReader is the slice of *grid.Grid the arena finish path needs.
type gridReader interface {
	Triangles() int
	AppendPoints(buf []lattice.Point) []lattice.Point
}
