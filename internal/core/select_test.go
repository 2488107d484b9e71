package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/setsystem"
)

// randMembers draws a sorted, duplicate-free member list over m sets.
func randMembers(rng *rand.Rand, m, n int) []setsystem.SetID {
	seen := make(map[setsystem.SetID]bool, n)
	out := make([]setsystem.SetID, 0, n)
	for len(out) < n {
		s := setsystem.SetID(rng.Intn(m))
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runOracle applies the retained sort-based selection to a fresh copy of
// members.
func runOracle(members []setsystem.SetID, capacity int, prio []float64) []setsystem.SetID {
	cands := append([]setsystem.SetID(nil), members...)
	return sortTopByPriority(cands, capacity, prio)
}

// runKernel decides through Admit on the keyed vector and gathers the
// admitted members.
func runKernel(members []setsystem.SetID, capacity int, prio []float64) []setsystem.SetID {
	var out []setsystem.SetID
	for _, j := range NewVectorState(prio).Admit(members, capacity, nil) {
		out = append(out, members[j])
	}
	return out
}

// checkAgainstOracle decides one element through Admit, Decide and
// DecideInPlace on the keyed vector and requires each to select exactly
// what the float64 sort oracle selects, with Admit's positions ascending
// and neither Admit nor Decide writing members.
func checkAgainstOracle(t *testing.T, members []setsystem.SetID, capacity int, prio []float64) {
	t.Helper()
	want := runOracle(members, capacity, prio)
	st := NewVectorState(prio)
	orig := slices.Clone(members)
	fail := func(path string, got any) {
		t.Helper()
		t.Fatalf("%s diverges from oracle\nmembers  %v\ncapacity %d\nprio     %v\ngot      %v\nwant     %v",
			path, members, capacity, prio, got, want)
	}
	pos := st.Admit(members, capacity, nil)
	var admitted []setsystem.SetID
	for k, j := range pos {
		if k > 0 && pos[k-1] >= j {
			fail("Admit (positions not ascending)", pos)
		}
		admitted = append(admitted, members[j])
	}
	if len(admitted) != len(want) || len(want) > 0 && !reflect.DeepEqual(admitted, want) {
		fail("Admit", admitted)
	}
	if got := st.Decide(members, capacity, nil); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		fail("Decide", got)
	}
	if !reflect.DeepEqual(members, orig) {
		t.Fatalf("Admit or Decide wrote members: %v, was %v", members, orig)
	}
	if got := st.DecideInPlace(slices.Clone(members), capacity); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		fail("DecideInPlace", got)
	}
}

// flipLow flips bit b (< 32) of p's mantissa, leaving the high half of
// its order key unchanged.
func flipLow(p float64, b int) float64 {
	return math.Float64frombits(math.Float64bits(p) ^ 1<<b)
}

// trickyPriority draws a priority built to stress the order keys around
// base (finite, nonzero): exact repeats, values whose keys share base's
// high 32 bits (math.Nextafter neighbours, low-mantissa flips), −0 beside
// +0, negatives, values above 1 (randpr-weighted's w·r, greedy-
// remaining's ranks up to m) and ±Inf.
func trickyPriority(rng *rand.Rand, base float64, m int) float64 {
	switch rng.Intn(10) {
	case 0:
		return base
	case 1:
		return math.Nextafter(base, math.Inf(1))
	case 2:
		return math.Nextafter(base, math.Inf(-1))
	case 3:
		return flipLow(base, rng.Intn(32))
	case 4:
		return math.Copysign(0, float64(rng.Intn(2)*2-1))
	case 5:
		return -base
	case 6:
		return (1 + 9*rng.Float64()) * rng.Float64()
	case 7:
		return float64(1 + rng.Intn(m))
	case 8:
		return math.Inf(rng.Intn(2)*2 - 1)
	default:
		return rng.Float64()
	}
}

// TestSelectMatchesOracle is the seeded table run of the kernel-vs-oracle
// property: random members, capacities and priorities must select
// identically through Admit, Decide and DecideInPlace and under the
// retained float64 sort oracle. Half the draws use a small value alphabet
// (exact duplicates: the SetID tie-break everywhere), half trickyPriority
// (ties and near-ties of the split keys). Capacities cycle through 0, 1,
// 2, the insertion window, the quickselect and at least len(members).
func TestSelectMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20000; trial++ {
		m := 1 + rng.Intn(100)
		n := 1 + rng.Intn(m)
		members := randMembers(rng, m, n)
		var capacity int
		switch trial % 7 {
		case 0:
			capacity = 0
		case 1:
			capacity = 1
		case 2:
			capacity = 2
		case 3:
			capacity = 3 + rng.Intn(windowCap-2)
		case 4:
			capacity = windowCap + 1 + rng.Intn(16)
		case 5:
			capacity = n + rng.Intn(3)
		default:
			capacity = rng.Intn(n + 3)
		}
		prio := make([]float64, m)
		if trial%2 == 0 {
			levels := 1 + rng.Intn(4)
			for i := range prio {
				prio[i] = float64(rng.Intn(levels))
			}
		} else {
			base := 0.5 + rng.Float64()
			for i := range prio {
				prio[i] = trickyPriority(rng, base, m)
			}
		}
		checkAgainstOracle(t, members, capacity, prio)
	}
}

// TestOrderKeyMonotone pins the key encoding itself: over a sorted ladder
// of priorities, keys ascend strictly except where the floats are equal
// (−0 and +0), and every key decodes to the priority it came from.
func TestOrderKeyMonotone(t *testing.T) {
	ladder := []float64{
		math.Inf(-1), -math.MaxFloat64, -2, math.Nextafter(-1, -2), -1, -0x1p-1074,
		math.Copysign(0, -1), 0, 0x1p-1074, 0.5, flipLow(0.5, 0), flipLow(0.5, 31),
		math.Nextafter(1, 0), 1, 262144, math.MaxFloat64, math.Inf(1),
	}
	for i := 1; i < len(ladder); i++ {
		a, b := ladder[i-1], ladder[i]
		ka, kb := orderKey(a), orderKey(b)
		if (a < b) != (ka < kb) || (a == b) != (ka == kb) {
			t.Errorf("order of %v, %v is not the order of keys %#x, %#x", a, b, ka, kb)
		}
		if got := fromOrderKey(kb); got != b || math.Signbit(got) && b == 0 {
			t.Errorf("fromOrderKey(orderKey(%v)) = %v", b, got)
		}
	}
	if orderKey(0.5)>>32 != orderKey(flipLow(0.5, 31))>>32 {
		t.Error("a low-mantissa flip changed the key's high half")
	}
}

// TestSelectEdgeCases pins the boundary behaviors the property test can
// only hit probabilistically.
func TestSelectEdgeCases(t *testing.T) {
	prio := []float64{0.5, 0.5, 0.9, 0.1, 0.5}
	cases := []struct {
		name     string
		members  []setsystem.SetID
		capacity int
		want     []setsystem.SetID
	}{
		{"capacity zero", []setsystem.SetID{0, 1, 2}, 0, []setsystem.SetID{}},
		{"capacity equals len", []setsystem.SetID{0, 1, 2}, 3, []setsystem.SetID{0, 1, 2}},
		{"capacity beyond len", []setsystem.SetID{0, 1}, 10, []setsystem.SetID{0, 1}},
		{"all tied picks low ids", []setsystem.SetID{0, 1, 4}, 2, []setsystem.SetID{0, 1}},
		{"best first", []setsystem.SetID{0, 2, 3}, 1, []setsystem.SetID{2}},
		{"tie among subset", []setsystem.SetID{1, 3, 4}, 2, []setsystem.SetID{1, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runKernel(tc.members, tc.capacity, prio)
			if len(got) == 0 && len(tc.want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %v, want %v", got, tc.want)
			}
			checkAgainstOracle(t, tc.members, tc.capacity, prio)
		})
	}
}

// TestSelectSmallCapacityMatchesOracle exhausts the capacity-1 and
// capacity-2 fast paths densely: every member count up to 24, tie-heavy
// priority alphabets down to a single level (all tied — pure SetID
// tie-break) and the split-key palette, compared to the sort oracle on
// each draw. The property test sweeps these capacities too; this pins
// them with far more trials per regime.
func TestSelectSmallCapacityMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, capacity := range []int{1, 2} {
		for n := capacity + 1; n <= 24; n++ {
			for _, levels := range []int{1, 2, 5, 0} {
				for trial := 0; trial < 200; trial++ {
					m := n + rng.Intn(40)
					members := randMembers(rng, m, n)
					prio := make([]float64, m)
					base := 0.5 + rng.Float64()
					for i := range prio {
						if levels == 0 {
							prio[i] = trickyPriority(rng, base, m)
						} else {
							prio[i] = float64(rng.Intn(levels))
						}
					}
					checkAgainstOracle(t, members, capacity, prio)
				}
			}
		}
	}
}

// TestSelectZeroAlloc asserts Admit, Decide and DecideInPlace allocate
// nothing once their buffers have grown, in the scan, insertion-window
// and quickselect regimes.
func TestSelectZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const m = 256
	prio := make([]float64, m)
	for i := range prio {
		prio[i] = rng.Float64()
	}
	st := NewVectorState(prio)
	members := randMembers(rng, m, 64)
	pos := make([]int32, 0, len(members))
	buf := make([]setsystem.SetID, 0, len(members))
	scratch := make([]setsystem.SetID, len(members))
	for _, capacity := range []int{1, 2, 4, windowCap, windowCap + 4, 32} {
		if allocs := testing.AllocsPerRun(200, func() {
			pos = st.Admit(members, capacity, pos)
		}); allocs != 0 {
			t.Errorf("capacity %d: %v allocs per Admit, want 0", capacity, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			buf = st.Decide(members, capacity, buf)
		}); allocs != 0 {
			t.Errorf("capacity %d: %v allocs per Decide, want 0", capacity, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			copy(scratch, members)
			st.DecideInPlace(scratch, capacity)
		}); allocs != 0 {
			t.Errorf("capacity %d: %v allocs per DecideInPlace, want 0", capacity, allocs)
		}
	}
}

// keyPalette is the fuzz target's priority alphabet: each neighbouring
// pair stresses one edge of the order keys.
var keyPalette = []float64{
	math.Inf(-1), -2.5, -1, math.Copysign(0, -1), 0, 0x1p-1074, 0.25,
	0.5, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0), flipLow(0.5, 0), flipLow(0.5, 31),
	1, 2.75, 262144, math.MaxFloat64, math.Inf(1),
}

// FuzzSelectMatchesOracle drives the kernel-vs-oracle equivalence from
// fuzzer-chosen bytes: each byte pair contributes a member id and a
// priority from keyPalette, the first bytes choose capacity and universe
// size. Run with `go test -fuzz FuzzSelectMatchesOracle ./internal/core`.
func FuzzSelectMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 8, 1, 0, 2, 1, 3, 2}, uint8(1))
	f.Add([]byte{10, 16, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0}, uint8(9)) // quickselect + ties
	f.Add([]byte{1, 1, 0, 0}, uint8(0))
	f.Add([]byte{16, 7, 0, 7, 1, 8, 2, 9, 3, 10, 4, 11}, uint8(2)) // shared high halves
	f.Fuzz(func(t *testing.T, data []byte, capByte uint8) {
		if len(data) < 4 {
			return
		}
		m := 1 + int(data[0])%64
		prio := make([]float64, m)
		for i := range prio {
			// Derived, duplicate-heavy priorities.
			prio[i] = keyPalette[(i*7+int(data[1]))%len(keyPalette)]
		}
		seen := make(map[setsystem.SetID]bool)
		var members []setsystem.SetID
		for i := 2; i+1 < len(data); i += 2 {
			s := setsystem.SetID(int(data[i]) % m)
			if !seen[s] {
				seen[s] = true
				members = append(members, s)
			}
			// Odd bytes re-pick priorities so ties appear and disappear.
			b := int(data[i+1])
			prio[b%m] = keyPalette[b%len(keyPalette)]
		}
		if len(members) == 0 {
			return
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		capacity := int(capByte) % (len(members) + 2)
		checkAgainstOracle(t, members, capacity, prio)
	})
}
