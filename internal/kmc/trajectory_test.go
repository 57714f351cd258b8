package kmc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"strings"
	"testing"

	"sops/internal/config"
	"sops/internal/frame"
	"sops/internal/rule"
)

// trajectoryHash runs c for chunks×chunk Metropolis-equivalent steps and
// returns the SHA-256 of everything observable along the way: every applied
// move (from, to, payload), and after each chunk the step, event and move
// counters, e(σ), H(σ) and the particle list in index order — for payload
// rules also the rotation counter and every particle's payload.
func trajectoryHash(c *Chain, chunks int, chunk uint64) string {
	var log frame.MoveLog
	c.SetMoveLog(&log)
	defer c.SetMoveLog(nil)
	h := sha256.New()
	var buf []byte
	put := func(v int64) { buf = binary.AppendVarint(buf, v) }
	for k := 0; k < chunks; k++ {
		c.Run(chunk)
		buf = buf[:0]
		for _, m := range log.Drain() {
			put(int64(m.From.X))
			put(int64(m.From.Y))
			put(int64(m.To.X))
			put(int64(m.To.Y))
			put(int64(m.Payload))
		}
		put(int64(c.Steps()))
		put(int64(c.Events()))
		put(int64(c.Accepted()))
		put(int64(c.Edges()))
		put(int64(c.Energy()))
		for _, p := range c.points {
			put(int64(p.X))
			put(int64(p.Y))
		}
		if !c.stateless {
			put(int64(c.Rotations()))
			for i := range c.points {
				put(int64(c.Payload(i)))
			}
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinnedTrajectories pins the exact trajectories of the kMC event loop
// over three seeds each: on the stateless path a compressing line (λ=4), an
// expanding spiral (λ=2) and a foraging schedule crossing many bias epochs
// and its λ switch; on the payload path the alignment rule compressing from
// a line, expanding from a spiral, and at few orientation states. Any change
// to the event loop's weights, fold order or randomness consumption changes
// these hashes; a pure speed-up of the reprice must not.
func TestPinnedTrajectories(t *testing.T) {
	forage := rule.MustForage(4, rule.ForageOptions{
		LambdaLow: 0.8,
		Radius:    3,
		FoodSteps: 60_000,
		Epoch:     512,
	})
	cases := []struct {
		name  string
		sigma *config.Config
		ru    *rule.Rule
		want  [3]string
	}{
		{"line-λ4", config.Line(40), rule.Compression(4), [3]string{
			"91d9cf7be67acaac024f9217ed9615e8912276e45907c1795b454a60c09801fb",
			"e3225441ea03ee5032ab8767e101f3e1eb1124074d6a90f962c440ce097042af",
			"70ff3749b011fcddd32eaa5de26c50dd496f44b003c85670d306e30999b12fa0",
		}},
		{"spiral-λ2", config.Spiral(40), rule.Compression(2), [3]string{
			"310d5908698adf7c156cd05f0ba2fa7b75618027516704a013f712f0b9a79027",
			"203a3df643f2111eb2f795007597b9a170615e73618c48f07be0a0327fb53ec0",
			"7f19b04c4ba0ac4cf4ea4063f4116d978b0b4ed911670f0f5b498f6879c697b5",
		}},
		{"forage", config.Spiral(40), forage, [3]string{
			"179c9f4ac9287785612fce85f5aacd771910049f1407ae06af279efc81b3fac2",
			"b9e145233469ef48eebd4cf563cf4d80e1748510cf8d9750e817b458665e36e2",
			"dd6bcd4d7e17369cc7b382c61f5d2910d444245b334bdcaa9811d43b14e76279",
		}},
		{"align-line-λ4-k6", config.Line(40), rule.MustAlignment(4, 6), [3]string{
			"6d626751bf6e9ebf1818490740067b411c8da55067113f1bd711d278ada19354",
			"20da4fb4cdb272e0460597e385b9cee3cbe8c34095673af7727693a38c59d181",
			"1d3a20ef6cfebd68b46a69318c9ab9f49c1a3552e68501a0db045d60cfa4b730",
		}},
		{"align-spiral-λ2-k6", config.Spiral(40), rule.MustAlignment(2, 6), [3]string{
			"df1dea9b57c3063dbf62ec913b0a524d4940f127ca5c670b688e6d943e8c31bf",
			"20eee9ba7f920dc003c3583b572f4e6e6ecb35978aefcdc80c904a326f6b0a07",
			"e9b44e94c5f6773422ecc796d6126351c1a12f590bde258e1b6bd648a869cfa0",
		}},
		{"align-spiral-λ0.5-k3", config.Spiral(40), rule.MustAlignment(0.5, 3), [3]string{
			"bfdd9f4816258d56074224e093bcb91e0f93166f3b6ace56488f3ee4667a773e",
			"2115bfa55afdbbe1de849e5638c7f2361323a9c89b5298ecce044c2ff90296f7",
			"e0fa5000e1b34d48e027d0ce7f9d92347019f3581f5937f7f3e6f481c9a4ff4b",
		}},
		{"align-line-λ4-k2", config.Line(40), rule.MustAlignment(4, 2), [3]string{
			"1f799d65786a77ca6e6dd4c90a1dd7659f08a3048274cdd155bfff0327d3561e",
			"de301aceeebd092baca296a7e50303521ea8ec322444182b49de76aacc9c859f",
			"5d4d89aef6ab0b473d873be2cbb84008d93ac0a775be729b420626698ead5eac",
		}},
	}
	for _, tc := range cases {
		for s, want := range tc.want {
			seed := uint64(s + 1)
			c := MustNewWithRule(tc.sigma, tc.ru, seed)
			if got := trajectoryHash(c, 40, 5_000); got != want {
				t.Errorf("%s seed %d: trajectory hash %s, want %s", tc.name, seed, got, want)
			}
			if err := c.CheckWeightSums(); err != nil {
				t.Errorf("%s seed %d: %v", tc.name, seed, err)
			}
		}
	}
}

// TestCheckWeightSumsRejectsCorruptCache is the negative control for the
// cached-mask check: one flipped bit in a pair-mask byte the weight fold
// never reads (the byte of an occupied direction) leaves every weight
// intact, so only the comparison against a fresh window can catch it.
func TestCheckWeightSumsRejectsCorruptCache(t *testing.T) {
	c := MustNew(config.Spiral(40), 2, 3)
	c.Run(20_000)
	if err := c.CheckWeightSums(); err != nil {
		t.Fatal(err)
	}
	for i, pm := range c.pm {
		nb := pm.NeighborMask()
		if nb == 0 {
			continue
		}
		d := bits.TrailingZeros8(nb)
		c.pm[i] ^= 1 << (8 * d)
		if got := c.weightPacked(c.pm[i], c.points[i]); got != c.wj[i] {
			t.Fatalf("corruption reached the fold: weight %v, maintained %v", got, c.wj[i])
		}
		if err := c.CheckWeightSums(); err == nil || !strings.Contains(err.Error(), "cached masks") {
			t.Fatalf("corrupted cache of particle %d accepted: %v", i, err)
		}
		return
	}
	t.Fatal("no particle with an occupied neighbor")
}

// TestCheckWeightSumsRejectsCorruptSameStateCache is the payload-path
// negative control: one flipped bit in a same-state byte the fold never
// reads (the byte of an occupied direction) leaves every weight intact, so
// only the comparison against a fresh same-state window can catch it.
func TestCheckWeightSumsRejectsCorruptSameStateCache(t *testing.T) {
	c := MustNewWithRule(config.Spiral(40), rule.MustAlignment(2, 6), 3)
	c.Run(20_000)
	if err := c.CheckWeightSums(); err != nil {
		t.Fatal(err)
	}
	for i, pm := range c.pm {
		nb := pm.NeighborMask()
		if nb == 0 {
			continue
		}
		d := bits.TrailingZeros8(nb)
		c.ps[i] ^= 1 << (8 * d)
		p := c.points[i]
		if got := c.pricePay(pm, c.ps[i], p, c.g.Payload(p), c.payBuf, c.ldAt(p)); got != c.wj[i] {
			t.Fatalf("corruption reached the fold: weight %v, maintained %v", got, c.wj[i])
		}
		if err := c.CheckWeightSums(); err == nil || !strings.Contains(err.Error(), "cached same-state masks") {
			t.Fatalf("corrupted same-state cache of particle %d accepted: %v", i, err)
		}
		return
	}
	t.Fatal("no particle with an occupied neighbor")
}
