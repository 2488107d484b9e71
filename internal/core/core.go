// Package core implements the online set packing (OSP) engine: the online
// algorithm contract, the streaming runner that enforces the OSP rules, the
// paper's randomized algorithm randPr (centralized and distributed
// variants) and a family of deterministic baselines.
//
// The OSP protocol (Section 2 of the paper): before the run, an algorithm
// learns each set's weight and size only. Elements then arrive one by one;
// element u carries its capacity b(u) and parent list C(u), and the
// algorithm must immediately choose at most b(u) parents to assign u to.
// A set is completed — and pays its weight — only if it was assigned every
// one of its elements.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/setsystem"
)

// Info is the up-front knowledge an online algorithm receives: per-set
// weights and declared sizes, nothing else.
type Info struct {
	Weights []float64
	Sizes   []int
}

// NumSets returns the number of sets.
func (in Info) NumSets() int { return len(in.Weights) }

// InfoOf extracts the up-front information of an instance.
func InfoOf(inst *setsystem.Instance) Info {
	return Info{Weights: inst.Weights, Sizes: inst.Sizes}
}

// State is the objective bookkeeping the runner maintains about the
// algorithm's own run: how many elements of each set have arrived and how
// many of those the algorithm assigned to the set. It is legitimate online
// information (derivable from the algorithm's own history) and is exposed
// read-only to algorithms through ElementView.
type State struct {
	info     Info
	arrived  []int32
	assigned []int32
}

// NewState creates bookkeeping for a run over sets described by info.
func NewState(info Info) *State {
	return &State{
		info:     info,
		arrived:  make([]int32, info.NumSets()),
		assigned: make([]int32, info.NumSets()),
	}
}

// Weight returns w(S).
func (s *State) Weight(id setsystem.SetID) float64 { return s.info.Weights[id] }

// Size returns |S|.
func (s *State) Size(id setsystem.SetID) int { return s.info.Sizes[id] }

// Arrived returns how many elements of S have arrived so far (excluding
// the element currently being decided).
func (s *State) Arrived(id setsystem.SetID) int { return int(s.arrived[id]) }

// Assigned returns how many of the arrived elements of S were assigned to
// it.
func (s *State) Assigned(id setsystem.SetID) int { return int(s.assigned[id]) }

// Active reports whether S is still completable: every element of S that
// has arrived so far was assigned to S.
func (s *State) Active(id setsystem.SetID) bool { return s.arrived[id] == s.assigned[id] }

// Remaining returns the number of elements of S yet to arrive (counting
// the element currently being decided, if it belongs to S).
func (s *State) Remaining(id setsystem.SetID) int {
	return s.info.Sizes[id] - int(s.arrived[id])
}

// ElementView is what an algorithm sees when an element arrives.
type ElementView struct {
	// Index is the element's position in the arrival order.
	Index int
	// Members is C(u), the parent sets, in increasing SetID order.
	Members []setsystem.SetID
	// Capacity is b(u).
	Capacity int
	// State is the run bookkeeping (read-only).
	State *State
}

// Algorithm is an online OSP algorithm. Reset is called once before each
// run with the up-front information; Choose is called once per element and
// must return a subset of ev.Members of size at most ev.Capacity (the
// returned slice may alias an internal buffer valid until the next call).
type Algorithm interface {
	Name() string
	Reset(info Info, rng *rand.Rand) error
	Choose(ev ElementView) []setsystem.SetID
}

// Errors reported by the runner when an algorithm misbehaves.
var (
	ErrChoseNonParent  = errors.New("core: algorithm chose a set not containing the element")
	ErrOverCapacity    = errors.New("core: algorithm chose more sets than the element's capacity")
	ErrDuplicateChoice = errors.New("core: algorithm chose the same set twice for one element")
)

// Result summarizes one run.
type Result struct {
	// Completed lists the sets assigned all their elements, ascending.
	Completed []setsystem.SetID
	// Benefit is the total weight of Completed.
	Benefit float64
	// Assigned[i] is the number of elements assigned to set i.
	Assigned []int32
}

// Equal reports whether two results are bit-for-bit identical: the same
// completed sets in the same order, the same per-set assignment counts,
// and a benefit equal down to the float64 bit pattern. It is the typed
// comparison used wherever an engine or service run is verified against
// the serial HashRandPr oracle (cmd/ospserve -verify, cmd/osploadgen).
// Nil and empty Completed/Assigned slices compare equal, so a result that
// round-tripped through JSON still matches its in-process original.
func (r *Result) Equal(o *Result) bool {
	if r == nil || o == nil {
		return r == o
	}
	if math.Float64bits(r.Benefit) != math.Float64bits(o.Benefit) {
		return false
	}
	if len(r.Completed) != len(o.Completed) || len(r.Assigned) != len(o.Assigned) {
		return false
	}
	for i, s := range r.Completed {
		if s != o.Completed[i] {
			return false
		}
	}
	for i, c := range r.Assigned {
		if c != o.Assigned[i] {
			return false
		}
	}
	return true
}

// Completes reports whether the given set was completed.
func (r *Result) Completes(id setsystem.SetID) bool {
	for _, s := range r.Completed {
		if s == id {
			return true
		}
		if s > id {
			return false
		}
	}
	return false
}

// Run replays a static instance against an algorithm and returns the
// result. rng seeds the algorithm's randomness (pass a deterministic
// source for reproducible runs; it may be nil for deterministic
// algorithms).
func Run(inst *setsystem.Instance, alg Algorithm, rng *rand.Rand) (*Result, error) {
	src := NewReplaySource(inst)
	res, _, err := RunSource(src, alg, rng)
	return res, err
}

// Source produces the element stream of a (possibly adaptive) instance.
// Next is given the algorithm's choice for the previous element (nil on
// the first call) and returns the next element, or ok = false at the end
// of the stream. Adaptive adversaries implement Source.
type Source interface {
	// Info returns the up-front information (weights and sizes), which
	// must be fixed before the stream starts.
	Info() Info
	// Next returns the next element. prevChoice is the algorithm's
	// validated decision on the previously returned element.
	Next(prevChoice []setsystem.SetID) (setsystem.Element, bool)
}

// RunSource streams elements from src into alg, enforcing the OSP rules.
// It returns the run result and the materialized instance (useful for
// computing OPT offline after an adaptive run).
func RunSource(src Source, alg Algorithm, rng *rand.Rand) (*Result, *setsystem.Instance, error) {
	info := src.Info()
	if err := alg.Reset(info, rng); err != nil {
		return nil, nil, fmt.Errorf("core: reset %s: %w", alg.Name(), err)
	}
	st := NewState(info)
	elements := make([]setsystem.Element, 0, 64)

	var prev []setsystem.SetID
	for idx := 0; ; idx++ {
		elem, ok := src.Next(prev)
		if !ok {
			break
		}
		ev := ElementView{Index: idx, Members: elem.Members, Capacity: elem.Capacity, State: st}
		choice := alg.Choose(ev)
		if err := validateChoice(elem, choice); err != nil {
			return nil, nil, fmt.Errorf("core: element %d, algorithm %s: %w", idx, alg.Name(), err)
		}
		for _, s := range elem.Members {
			st.arrived[s]++
		}
		for _, s := range choice {
			st.assigned[s]++
		}
		elements = append(elements, elem)
		prev = append(prev[:0], choice...)
	}

	inst := &setsystem.Instance{Weights: info.Weights, Sizes: info.Sizes, Elements: elements}
	return ResultFromCounts(info, st.assigned), inst, nil
}

// ResultFromCounts builds the Result a run with these per-set assignment
// counts reports: a set is completed when its count reaches its declared
// size, and Benefit sums the completed weights in ascending set order —
// the one float-add order every runner, engine drain and cluster merge
// shares, which is what keeps their Results bit-for-bit equal. The
// Result takes ownership of assigned, which holds one count per set; the
// sweep reads a set's weight only when the set completed.
func ResultFromCounts(info Info, assigned []int32) *Result {
	res := &Result{Assigned: assigned}
	sizes := info.Sizes[:len(assigned)]
	for i, a := range assigned {
		if int(a) == sizes[i] {
			res.Completed = append(res.Completed, setsystem.SetID(i))
			res.Benefit += info.Weights[i]
		}
	}
	return res
}

func validateChoice(elem setsystem.Element, choice []setsystem.SetID) error {
	if len(choice) > elem.Capacity {
		return fmt.Errorf("%w: chose %d, capacity %d", ErrOverCapacity, len(choice), elem.Capacity)
	}
	seen := make(map[setsystem.SetID]bool, len(choice))
	for _, s := range choice {
		if seen[s] {
			return fmt.Errorf("%w: set %d", ErrDuplicateChoice, s)
		}
		seen[s] = true
		if !contains(elem.Members, s) {
			return fmt.Errorf("%w: set %d", ErrChoseNonParent, s)
		}
	}
	return nil
}

// contains does a binary search over the sorted member list.
func contains(members []setsystem.SetID, id setsystem.SetID) bool {
	lo, hi := 0, len(members)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case members[mid] < id:
			lo = mid + 1
		case members[mid] > id:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// ReplaySource adapts a static instance to the Source interface.
type ReplaySource struct {
	inst *setsystem.Instance
	pos  int
}

// NewReplaySource returns a Source that replays the instance's elements in
// order.
func NewReplaySource(inst *setsystem.Instance) *ReplaySource {
	return &ReplaySource{inst: inst}
}

// Info implements Source.
func (r *ReplaySource) Info() Info { return InfoOf(r.inst) }

// Next implements Source.
func (r *ReplaySource) Next(_ []setsystem.SetID) (setsystem.Element, bool) {
	if r.pos >= len(r.inst.Elements) {
		return setsystem.Element{}, false
	}
	e := r.inst.Elements[r.pos]
	r.pos++
	return e, true
}

var _ Source = (*ReplaySource)(nil)

// MeanBenefit runs alg on inst trials times with rng streams derived from
// seed and returns the sample mean and standard error of the benefit.
// Deterministic algorithms still honor trials (all runs identical).
func MeanBenefit(inst *setsystem.Instance, alg Algorithm, trials int, seed int64) (mean, stderr float64, err error) {
	if trials < 1 {
		return 0, 0, errors.New("core: trials must be >= 1")
	}
	var sum, sumsq float64
	for t := 0; t < trials; t++ {
		rng := rand.New(rand.NewSource(seed + int64(t)*0x9e3779b9))
		res, rerr := Run(inst, alg, rng)
		if rerr != nil {
			return 0, 0, rerr
		}
		sum += res.Benefit
		sumsq += res.Benefit * res.Benefit
	}
	n := float64(trials)
	mean = sum / n
	if trials > 1 {
		v := (sumsq - sum*sum/n) / (n - 1)
		if v > 0 {
			stderr = math.Sqrt(v / n)
		}
	}
	return mean, stderr, nil
}
