package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/dist"
	"repro/internal/hashpr"
	"repro/internal/setsystem"
)

// VectorState is the PolicyState shared by every priority-vector policy:
// a fixed per-set priority decided through the zero-allocation top-k
// kernel Admit, ties broken by lower SetID. randPr, its weighted variant
// and the deterministic greedy-remaining policy are all vector policies —
// they differ only in how Setup fills the vector.
//
// A decision depends only on the order of the priorities, so the state
// keeps each priority's order key (orderKey) instead of the float64: the
// key's high 32 bits in hi, its low 32 bits in lo. The kernel scans hi
// alone and reads lo only when two high halves tie, so its hot data is
// 4 bytes per set — 1 MB at 2^18 sets, where a float64 vector was 2 MB —
// while the state stays 8 bytes per set and decides exactly as the
// float64 comparison did.
type VectorState struct {
	hi, lo []uint32
}

// NewVectorState keys a priority vector. The vector is not retained.
// Priorities must not be NaN.
func NewVectorState(prio []float64) *VectorState {
	s := new(VectorState).resized(len(prio))
	for id, p := range prio {
		s.put(id, p)
	}
	return s
}

// resized returns s — a fresh state when s is nil — holding keys for m
// sets, reusing its storage when possible. The keys are unset.
func (s *VectorState) resized(m int) *VectorState {
	if s == nil {
		s = new(VectorState)
	}
	s.hi, s.lo = resize(s.hi, m), resize(s.lo, m)
	return s
}

// put sets set id's priority to p.
func (s *VectorState) put(id int, p float64) {
	k := orderKey(p)
	s.hi[id], s.lo[id] = uint32(k>>32), uint32(k)
}

// priority returns set id's priority, recovered from its key.
func (s *VectorState) priority(id int) float64 {
	return fromOrderKey(uint64(s.hi[id])<<32 | uint64(s.lo[id]))
}

// orderKey is the monotone bijection from float64 priorities to uint64:
// for non-NaN a and b, a < b exactly when orderKey(a) < orderKey(b), and
// −0 shares +0's key as it compares equal to it. Positive floats get
// the sign bit set; negative ones are complemented, which reverses
// their magnitude order and clears the sign bit.
func orderKey(p float64) uint64 {
	b := math.Float64bits(p)
	if p == 0 {
		b = 0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// fromOrderKey inverts orderKey.
func fromOrderKey(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// keyChunk is how many hashed uniforms a hash-derived Setup holds at once
// on their way to order keys, so no Setup materializes a float64 vector
// the size of the instance next to the state it builds.
const keyChunk = 1024

// hashState fills dst's keys (reusing its storage; nil allocates) with
// the hash-derived R_w priority of every set, each scaled by its set's
// weight when weighted. It computes every priority as HashPriorities
// does — hashpr.FillUniform, then dist.FromUniform — keyChunk uniforms
// at a time, and keys each one in the same pass as its transform.
func hashState(info Info, h hashpr.UniformHasher, weighted bool, dst *VectorState) *VectorState {
	m := info.NumSets()
	s := dst.resized(m)
	chunk := make([]float64, min(keyChunk, m))
	for first := 0; first < m; first += keyChunk {
		us := chunk[:min(keyChunk, m-first)]
		hashpr.FillUniform(h, uint64(first), us)
		ws := info.Weights[first : first+len(us)]
		hi, lo := s.hi[first:first+len(us)], s.lo[first:first+len(us)]
		for i, u := range us {
			p := dist.FromUniform(u, ws[i])
			if weighted {
				p *= ws[i]
			}
			k := orderKey(p)
			hi[i], lo[i] = uint32(k>>32), uint32(k)
		}
	}
	return s
}

// Decide implements PolicyState: Admit's winners gathered into buf's
// storage.
func (s *VectorState) Decide(members []setsystem.SetID, capacity int, buf []setsystem.SetID) []setsystem.SetID {
	return s.gather(members, capacity, buf[:0])
}

// DecideInPlace implements PolicyState: Admit's winners gathered into
// the front of members.
func (s *VectorState) DecideInPlace(members []setsystem.SetID, capacity int) []setsystem.SetID {
	return s.gather(members, capacity, members[:0])
}

// gather appends the members Admit admits to dst, in ascending order.
// dst may be members[:0]: positions ascend, so every write lands at or
// before the position it reads. The positions live in a stack array, so
// gathering allocates nothing unless an element of more than 64 members
// has a capacity above windowCap.
func (s *VectorState) gather(members []setsystem.SetID, capacity int, dst []setsystem.SetID) []setsystem.SetID {
	var stack [64]int32
	for _, j := range s.Admit(members, capacity, stack[:0]) {
		dst = append(dst, members[j])
	}
	return dst
}

// choose is a VectorState in the serial runner's hands: the b(u)
// highest-priority members of ev — only still-completable ones when
// activeOnly — in ascending SetID order, in buf's storage.
func (s *VectorState) choose(ev ElementView, activeOnly bool, buf *[]setsystem.SetID) []setsystem.SetID {
	cands := (*buf)[:0]
	for _, id := range ev.Members {
		if !activeOnly || ev.State.Active(id) {
			cands = append(cands, id)
		}
	}
	*buf = cands
	return s.DecideInPlace(cands, ev.Capacity)
}

// windowCap is the largest capacity decided by the bounded insertion
// window. Real workloads almost always have b(u) within this bound (link
// rates of a few packets per slot), so the common case never partitions.
const windowCap = 8

// Admit implements PolicyState. It is the one selection kernel of every
// priority-vector policy: the positions of the capacity members with the
// highest priorities — ties broken by lower SetID — in ascending order.
// members is only read. It allocates nothing once pos has grown:
// capacities 1 and 2 run a single scan, capacities up to windowCap an
// insertion window over the first capacity slots of pos, larger ones a
// quickselect over every position. All reproduce sortTopByPriority (the
// retained reference oracle) bit for bit.
func (s *VectorState) Admit(members []setsystem.SetID, capacity int, pos []int32) []int32 {
	n := len(members)
	pos = pos[:0]
	if n <= capacity {
		for j := range n {
			pos = append(pos, int32(j))
		}
		return pos
	}
	if capacity <= 0 {
		return pos
	}
	hi := s.hi
	switch {
	case capacity == 1:
		// A running max. A candidate's high half below the best's
		// rejects it in one compare; only an equal one reads lo.
		best := 0
		bh := hi[members[0]]
		for j := 1; j < n; j++ {
			h := hi[members[j]]
			if h > bh || h == bh && s.tieOutranks(members[j], members[best]) {
				best, bh = j, h
			}
		}
		return append(pos, int32(best))
	case capacity == 2:
		// An ordered pair a (first) and b (second), demoted through one
		// compare against b per candidate and a second against a only
		// when b is beaten.
		a, b := 0, 1
		if s.outranks(members[1], members[0]) {
			a, b = 1, 0
		}
		ha, hb := hi[members[a]], hi[members[b]]
		for j := 2; j < n; j++ {
			h := hi[members[j]]
			if h < hb || h == hb && !s.tieOutranks(members[j], members[b]) {
				continue
			}
			if h > ha || h == ha && s.tieOutranks(members[j], members[a]) {
				a, b, ha, hb = j, a, h, ha
			} else {
				b, hb = j, h
			}
		}
		if b < a {
			a, b = b, a
		}
		return append(pos, int32(a), int32(b))
	case capacity <= windowCap:
		return s.admitWindow(members, capacity, pos)
	}
	return s.admitPartition(members, capacity, pos)
}

// outranks is the kernel's strict total order on SetIDs: higher
// priority first, ties by lower SetID. SetIDs within one element are
// distinct, so exactly one of outranks(a, b) and outranks(b, a) holds
// for a != b.
func (s *VectorState) outranks(a, b setsystem.SetID) bool {
	if ha, hb := s.hi[a], s.hi[b]; ha != hb {
		return ha > hb
	}
	return s.tieOutranks(a, b)
}

// tieOutranks is outranks for two sets whose high halves are equal.
func (s *VectorState) tieOutranks(a, b setsystem.SetID) bool {
	if la, lb := s.lo[a], s.lo[b]; la != lb {
		return la > lb
	}
	return a < b
}

// admitWindow keeps the positions of the k best members seen so far in
// pos, highest first: the first k fill it, and a later member enters
// only by outranking the window's last, displacing it. A final sort
// restores ascending positions. O(n·k) with k ≤ windowCap.
func (s *VectorState) admitWindow(members []setsystem.SetID, k int, pos []int32) []int32 {
	for j, c := range members {
		w := len(pos)
		switch {
		case w < k:
			pos = append(pos, 0)
		case !s.outranks(c, members[pos[k-1]]):
			continue
		default:
			w = k - 1
		}
		for w > 0 && s.outranks(c, members[pos[w-1]]) {
			pos[w] = pos[w-1]
			w--
		}
		pos[w] = int32(j)
	}
	slices.Sort(pos)
	return pos
}

// admitPartition fills pos with every position, partitions the k best
// to the front and returns those in ascending order. O(n) expected.
func (s *VectorState) admitPartition(members []setsystem.SetID, k int, pos []int32) []int32 {
	for j := range members {
		pos = append(pos, int32(j))
	}
	s.partitionTop(members, pos, k)
	pos = pos[:k]
	slices.Sort(pos)
	return pos
}

// partitionTop reorders pos so pos[:k] holds the positions of the k
// best members (in arbitrary order). Median-of-three pivots with an
// insertion-sort fallback on small ranges keep it O(n) expected.
func (s *VectorState) partitionTop(members []setsystem.SetID, pos []int32, k int) {
	above := func(i, j int) bool { return s.outranks(members[pos[i]], members[pos[j]]) }
	l, r := 0, len(pos) // half-open working range containing index k-1
	for r-l > 12 {
		// Order three samples so the best of the three sits at l and
		// the median at r-1; the median is the pivot. l strictly
		// outranking the pivot bounds the partition point away from l,
		// guaranteeing progress on every iteration.
		mid := l + (r-l)/2
		if above(mid, l) {
			pos[mid], pos[l] = pos[l], pos[mid]
		}
		if above(r-1, l) {
			pos[r-1], pos[l] = pos[l], pos[r-1]
		}
		if above(mid, r-1) {
			pos[mid], pos[r-1] = pos[r-1], pos[mid]
		}
		// Lomuto partition: positions outranking the pivot to the front.
		p := l
		for i := l; i < r-1; i++ {
			if above(i, r-1) {
				pos[i], pos[p] = pos[p], pos[i]
				p++
			}
		}
		pos[r-1], pos[p] = pos[p], pos[r-1]
		switch {
		case p == k-1:
			return
		case p > k-1:
			r = p
		default:
			l = p + 1
		}
	}
	// Small range: a highest-first insertion sort settles the boundary.
	for i := l + 1; i < r; i++ {
		for j := i; j > l && above(j, j-1); j-- {
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
}

// SelectTopPrioritySort is the sort-based reference selection: the (up
// to) capacity members with the highest priorities, in ascending SetID
// order, ties broken by lower SetID, in buf's storage. Benchmarks
// (bench_test.go, cmd/ospperf) time it against the kernel, and tests use
// it as an independent replica of a float64 priority vector's
// decisions. Production code decides through a PolicyState.
func SelectTopPrioritySort(members []setsystem.SetID, capacity int, prio []float64, buf []setsystem.SetID) []setsystem.SetID {
	cands := append(buf[:0], members...)
	return sortTopByPriority(cands, capacity, prio)
}

// sortTopByPriority is the original sort-based selection, retained verbatim
// as the reference oracle for the kernel's property and fuzz tests. It is
// not on any hot path.
func sortTopByPriority(cands []setsystem.SetID, capacity int, prio []float64) []setsystem.SetID {
	if len(cands) > capacity {
		sort.Slice(cands, func(i, j int) bool {
			pi, pj := prio[cands[i]], prio[cands[j]]
			if pi != pj {
				return pi > pj
			}
			return cands[i] < cands[j]
		})
		cands = cands[:capacity]
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	}
	return cands
}

// resize returns a slice of length n reusing buf's storage when possible.
func resize[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}
