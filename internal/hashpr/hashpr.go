// Package hashpr provides the hash-based priorities that make randPr a
// distributed algorithm (Section 3.1 of the paper): every server derives
// the priority of a set from a shared seed and the set's identifier, so no
// coordination is needed for all servers to agree on priorities.
//
// Two families are provided:
//
//   - Mixer: a SplitMix64 finalizer — the "any off-the-shelf hash function
//     would do" option. Full avalanche, effectively independent for
//     practical purposes.
//   - PolyFamily: polynomial hashing over the Mersenne prime 2^61−1, an
//     explicitly d-wise independent family — the theoretical option the
//     paper mentions (kmax·σmax-wise independence suffices).
//
// Both produce uniform variates in [0,1) which callers map through
// dist.FromUniform to obtain R_w priorities.
package hashpr

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
)

// Mixer is a stateless 64-bit hash with a seed, based on the SplitMix64
// finalizer. The zero value is usable (seed 0), but distinct seeds give
// independent-looking priority assignments.
type Mixer struct {
	Seed uint64
}

// Hash returns the mixed 64-bit hash of x under the seed.
func (m Mixer) Hash(x uint64) uint64 {
	z := x + m.Seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uniform returns the hash of x mapped to [0,1) with 53 bits of precision.
func (m Mixer) Uniform(x uint64) float64 {
	return float64(m.Hash(x)>>11) / (1 << 53)
}

// mersenne61 is the Mersenne prime 2^61 − 1 used as the field modulus of
// PolyFamily.
const mersenne61 = (1 << 61) - 1

// mulmod61 multiplies a·b modulo 2^61−1. bits.Mul64 is a compiler
// intrinsic (a single MULX/UMULH pair on amd64/arm64), so the full 128-bit
// product costs one multiply instead of the four 32×32 limb products a
// portable schoolbook split needs.
func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// Split the 128-bit product into 61-bit limbs and fold: since
	// 2^61 ≡ 1 (mod p), the product ≡ low61 + middle + high (mod p).
	l := lo & mersenne61
	h := (lo >> 61) | (hi << 3)
	s := l + h
	if s >= mersenne61 {
		s -= mersenne61
	}
	return s
}

// ErrBadDegree is returned when a PolyFamily is requested with fewer than 2
// coefficients (pairwise independence is the minimum useful degree).
var ErrBadDegree = errors.New("hashpr: independence degree must be >= 2")

// PolyFamily is a d-wise independent hash family: h(x) = Σ c_i x^i mod p
// with p = 2^61−1 and d random coefficients. Evaluations at any d distinct
// points are independent and uniform over the field.
type PolyFamily struct {
	coeffs []uint64
}

// NewPolyFamily draws a random member of the d-wise independent family
// using rng. It returns ErrBadDegree if d < 2.
func NewPolyFamily(d int, rng *rand.Rand) (*PolyFamily, error) {
	if d < 2 {
		return nil, fmt.Errorf("%w: d=%d", ErrBadDegree, d)
	}
	coeffs := make([]uint64, d)
	for i := range coeffs {
		coeffs[i] = uint64(rng.Int63n(mersenne61))
	}
	// Leading coefficient nonzero keeps the polynomial degree exactly d−1.
	if coeffs[d-1] == 0 {
		coeffs[d-1] = 1
	}
	return &PolyFamily{coeffs: coeffs}, nil
}

// Degree returns the independence degree d.
func (p *PolyFamily) Degree() int { return len(p.coeffs) }

// Hash evaluates the polynomial at x by Horner's rule, returning a value
// in [0, 2^61−1).
func (p *PolyFamily) Hash(x uint64) uint64 {
	x %= mersenne61
	var acc uint64
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		acc = mulmod61(acc, x)
		acc += p.coeffs[i]
		if acc >= mersenne61 {
			acc -= mersenne61
		}
	}
	return acc
}

// Uniform returns the hash of x mapped to [0,1).
func (p *PolyFamily) Uniform(x uint64) float64 {
	return float64(p.Hash(x)) / float64(uint64(mersenne61))
}

// UniformHasher is the interface shared by Mixer and PolyFamily: a
// deterministic map from 64-bit identifiers to uniform [0,1) variates.
// Any implementation can drive the distributed randPr.
type UniformHasher interface {
	Uniform(x uint64) float64
}

// FillUniform sets out[i] = h.Uniform(first+i) for every i — the bulk
// fill path used when priorities are derived a run of identifiers at a
// time. The concrete-type branches devirtualize the per-index hash call
// so the known hashers inline into a tight loop instead of paying an
// interface dispatch per set.
func FillUniform(h UniformHasher, first uint64, out []float64) {
	switch h := h.(type) {
	case Mixer:
		for i := range out {
			out[i] = h.Uniform(first + uint64(i))
		}
	case *PolyFamily:
		for i := range out {
			out[i] = h.Uniform(first + uint64(i))
		}
	default:
		for i := range out {
			out[i] = h.Uniform(first + uint64(i))
		}
	}
}

var (
	_ UniformHasher = Mixer{}
	_ UniformHasher = (*PolyFamily)(nil)
)
