package amoebot

import (
	"testing"

	"sops/internal/config"
	"sops/internal/rule"
)

// TestAlignmentProtocolInvariants drives the distributed Metropolis
// protocol with the alignment rule: world invariants must hold throughout,
// every spin must stay in range, rotations must fire, and at strong
// aligning bias the order parameter must rise well above the random-spin
// baseline.
func TestAlignmentProtocolInvariants(t *testing.T) {
	const (
		n      = 30
		states = 3
		lambda = 6
	)
	ru := rule.MustAlignment(lambda, states)
	w, err := NewWorld(config.Spiral(n))
	if err != nil {
		t.Fatal(err)
	}
	w.SeedPayload(states, 7)
	s := NewPoissonScheduler(w, MustNewMetropolis(ru), 7)
	for batch := 0; batch < 20; batch++ {
		s.RunActivations(20_000)
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for id := 0; id < n; id++ {
			if sp := w.Payload(ParticleID(id)); int(sp) >= states {
				t.Fatalf("batch %d: particle %d spin %d out of range", batch, id, sp)
			}
		}
		cfg := w.Config()
		if !cfg.Connected() {
			t.Fatalf("batch %d: configuration disconnected", batch)
		}
	}
	if w.Rotations() == 0 {
		t.Fatal("no rotations applied in 400k activations")
	}
	cfg := w.Config()
	if cfg.Edges() == 0 {
		t.Fatal("no edges?")
	}
	order := float64(w.Energy(ru)) / float64(cfg.Edges())
	if order < 0.7 {
		t.Fatalf("order parameter %.3f after 400k activations at λ=6 — distributed alignment not aligning", order)
	}
}

// TestSeedPayloadDeterministic: equal (σ0, states, seed) must reproduce the
// identical initial spin assignment.
func TestSeedPayloadDeterministic(t *testing.T) {
	mk := func() *World {
		w, err := NewWorld(config.Line(20))
		if err != nil {
			t.Fatal(err)
		}
		w.SeedPayload(5, 99)
		return w
	}
	a, b := mk(), mk()
	for id := 0; id < 20; id++ {
		if a.Payload(ParticleID(id)) != b.Payload(ParticleID(id)) {
			t.Fatalf("particle %d: spins %d vs %d", id, a.Payload(ParticleID(id)), b.Payload(ParticleID(id)))
		}
	}
}

// TestActivationAllocatesNothing: a scheduled activation — the event-queue
// pop and push, the protocol call and the round bookkeeping — allocates
// nothing, under both schedulers and for stateless and payload rules.
func TestActivationAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ru     *rule.Rule
		states int
	}{
		{"compression", rule.Compression(4), 0},
		{"align", rule.MustAlignment(4, 6), 6},
	} {
		w, err := NewWorld(config.Line(60))
		if err != nil {
			t.Fatal(err)
		}
		if tc.states > 0 {
			w.SeedPayload(tc.states, 3)
		}
		proto := MustNewMetropolis(tc.ru)
		poisson := NewPoissonScheduler(w, proto, 1)
		uniform := NewUniformScheduler(w, proto, 2)
		poisson.RunActivations(2_000) // past the first expansions and rounds
		if got := testing.AllocsPerRun(5_000, func() { poisson.StepActivation() }); got != 0 {
			t.Errorf("%s: Poisson activation allocates %v times", tc.name, got)
		}
		if got := testing.AllocsPerRun(5_000, func() { uniform.StepActivation() }); got != 0 {
			t.Errorf("%s: uniform activation allocates %v times", tc.name, got)
		}
		if w.Rounds() == 0 {
			t.Errorf("%s: no round completed", tc.name)
		}
	}
}
