package field

import "math/rand"

// The legacy scheme's generator: math/rand's additive lagged-Fibonacci
// source, the one rand.NewSource returns, reproduced draw for draw so that
// reseeding it is cheap. The draws are s[n] = s[n-607] + s[n-273] mod 2^64
// over a 607-word register. Seeding fills the register from a Lehmer chain
// x <- 48271·x mod (2^31-1), three chain values per word, XORed with a
// fixed "cooked" table. math/rand runs that chain one Schrage step at a
// time, 1841 dependent steps per seed. Here the modulus is reduced as the
// Mersenne prime it is, and the chain is split into lfLanes independent
// lanes, each started at its offset by a precomputed jump, so the lanes'
// multiplies overlap.

const (
	lfLen    = 607 // register length
	lfTap    = 273 // the shorter lag
	lfMask   = 1<<63 - 1
	lehmerM  = 1<<31 - 1 // the seeding chain's modulus, a Mersenne prime
	lehmerA  = 48271     // the seeding chain's multiplier
	lfWarmup = 20        // chain steps discarded before the first word
	lfLanes  = 4
	lfLaneW  = (lfLen + lfLanes - 1) / lfLanes // words per lane; the last lane has one fewer
	lfSeed0  = 89482311                        // math/rand's stand-in for a zero seed
)

var (
	// lfCooked is math/rand's cooked table: the words each seeded register
	// word is XORed with. init recovers it from math/rand's own draws.
	lfCooked [lfLen]uint64
	// lfJump[j] is 48271^(lfWarmup + 3·lfLaneW·j) mod 2^31-1: it carries a
	// seed to the chain value just before lane j's first word.
	lfJump [lfLanes]uint64
)

func init() {
	a, steps := uint64(1), 0
	for j := range lfJump {
		for ; steps < lfWarmup+3*lfLaneW*j; steps++ {
			a = lehmer(a)
		}
		lfJump[j] = a
	}

	// Recover the cooked table from the first lfLen draws of a math/rand
	// source seeded with 1. Write the register in draw order as x[0..606]
	// (x[k] is the word the k-th draw overwrites) and the draws as
	// x[607..1213]; then x[n] = x[n-607] + x[n-273], which solves for
	// x[n-607] walking n downward (each x[n-273] is a draw or was solved
	// at n+334). With lfCooked still zero, Seed leaves
	// the bare chain words in the register, and XOR recovers the table.
	src := rand.NewSource(1).(rand.Source64)
	var x [2 * lfLen]uint64
	for k := lfLen; k < 2*lfLen; k++ {
		x[k] = src.Uint64()
	}
	for n := 2*lfLen - 1; n >= lfLen; n-- {
		x[n-lfLen] = x[n] - x[n-lfTap]
	}
	var bare legacySource
	bare.Seed(1)
	for k := 0; k < lfLen; k++ {
		i := (2*lfLen - lfTap - 1 - k) % lfLen
		lfCooked[i] = x[k] ^ bare.vec[i]
	}
}

// lehmer advances the seeding chain one step. x·48271 < 2^47, and
// 2^31 ≡ 1 mod 2^31-1, so folding the high bits onto the low ones and one
// conditional subtraction reduce it exactly.
func lehmer(x uint64) uint64 {
	p := x * lehmerA
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// mulMod returns a·b mod 2^31-1 for a, b < 2^31.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerM + p>>31
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// lfWord draws one register word from the chain at x: the next three
// chain values, shifted and XORed as math/rand does. It returns the word
// and the advanced chain.
func lfWord(x uint64) (uint64, uint64) {
	a := lehmer(x)
	b := lehmer(a)
	c := lehmer(b)
	return a<<40 ^ b<<20 ^ c, c
}

// legacySource is math/rand's lagged-Fibonacci source. It implements
// rand.Source64; rand.New over it draws exactly what
// rand.New(rand.NewSource(seed)) draws.
type legacySource struct {
	tap, feed int
	vec       [lfLen]uint64
}

// Seed positions the source at the start of seed's stream.
func (s *legacySource) Seed(seed int64) {
	s.tap, s.feed = 0, lfLen-lfTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = lfSeed0
	}
	x := uint64(seed)
	x0, x1, x2, x3 := mulMod(x, lfJump[0]), mulMod(x, lfJump[1]), mulMod(x, lfJump[2]), mulMod(x, lfJump[3])
	v := &s.vec
	var w uint64
	for i := 0; i < lfLen-(lfLanes-1)*lfLaneW; i++ {
		w, x0 = lfWord(x0)
		v[i] = w ^ lfCooked[i]
		w, x1 = lfWord(x1)
		v[i+lfLaneW] = w ^ lfCooked[i+lfLaneW]
		w, x2 = lfWord(x2)
		v[i+2*lfLaneW] = w ^ lfCooked[i+2*lfLaneW]
		w, x3 = lfWord(x3)
		v[i+3*lfLaneW] = w ^ lfCooked[i+3*lfLaneW]
	}
	// The short last lane is done; finish the other three.
	i := lfLaneW - 1
	w, _ = lfWord(x0)
	v[i] = w ^ lfCooked[i]
	w, _ = lfWord(x1)
	v[i+lfLaneW] = w ^ lfCooked[i+lfLaneW]
	w, _ = lfWord(x2)
	v[i+2*lfLaneW] = w ^ lfCooked[i+2*lfLaneW]
}

// Uint64 returns the next 64 bits of the stream (rand.Source64).
func (s *legacySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 implements rand.Source.
func (s *legacySource) Int63() int64 { return int64(s.Uint64() & lfMask) }

// Float64s fills dst with the next len(dst) draws of rand.Rand.Float64
// over this source, without the interface call per draw.
func (s *legacySource) Float64s(dst []float64) {
	for k := range dst {
		f := float64(s.Int63()) * (1.0 / (1 << 63))
		for f == 1 {
			f = float64(s.Int63()) * (1.0 / (1 << 63))
		}
		dst[k] = f
	}
}
