// Package cluster is the multi-node admission fabric: a coordinator
// that partitions instances across N admission-service nodes by
// consistent hashing, fans large instances out across nodes by element
// hash (the same split rule the engine uses for shards, one level up),
// forwards ingest over the stream transport, and merges per-node drains
// exactly like engine.Drain merges shard counts.
//
// The whole design rides on the policy contract: Setup is pure in
// (Info, seed) and Decide is pure in the element and the frozen state,
// so ANY node given the same registration is bit-for-bit identical to
// any other — the property that makes shards safe inside one process
// makes stateless replicas safe across machines. Three consequences the
// coordinator exploits:
//
//   - Placement is free. An instance can live on any node, or be split
//     across all of them by element hash, and the merged drain equals
//     the serial oracle — no placement decision can change a verdict.
//   - Failover is a replay, not a state transfer. A replacement node
//     is re-registered from the Spec the coordinator's Instance holds
//     and reaches the exact policy state of the node it replaces,
//     because that state IS the registration.
//   - Merging is addition. Per-node Assigned counters sum exactly like
//     per-shard counters (integers commute); completion and benefit are
//     recomputed from the summed counts (DESIGN.md §15).
package cluster

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/hashpr"
	"repro/osp"
)

// ringSeed salts the placement ring's hash so instance placement is
// independent of every other use of the instance ID.
const ringSeed = 0x05f0c1a9

// defaultVnodes is the virtual-node count per slot: enough that keys
// spread within ~20% of even across a handful of nodes, few enough that
// building the ring is microseconds.
const defaultVnodes = 64

// Ring is a consistent-hash ring over node SLOTS — positional indices
// 0..slots-1, not node addresses. Hashing the slot index instead of the
// address is what makes failover placement-stable: a replacement node
// takes over the dead node's slot and with it the exact key range, so
// no instance moves and no re-partitioning happens. (Classic
// address-hashed rings reshuffle ~1/N of the keyspace on replacement —
// here that would mean re-registering instances on nodes that never
// failed.)
type Ring struct {
	points []ringPoint // sorted by hash, ties broken by slot
	slots  int
}

type ringPoint struct {
	hash uint64
	slot int
}

// NewRing builds the ring for the given slot count, defaultVnodes
// points per slot. Deterministic: the same slot count always yields the
// same ring, on every machine.
func NewRing(slots int) *Ring {
	m := hashpr.Mixer{Seed: ringSeed}
	r := &Ring{points: make([]ringPoint, 0, slots*defaultVnodes), slots: slots}
	for s := 0; s < slots; s++ {
		for v := 0; v < defaultVnodes; v++ {
			h := m.Hash(uint64(s)<<20 | uint64(v))
			r.points = append(r.points, ringPoint{hash: h, slot: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].slot < r.points[j].slot
	})
	return r
}

// Slots returns the slot count the ring was built for.
func (r *Ring) Slots() int { return r.slots }

// Lookup maps a key (an instance ID) to its owning slot: the first
// ring point clockwise from the key's hash.
func (r *Ring) Lookup(key string) int {
	if r.slots == 1 {
		return 0
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].slot
}

// hashKey hashes a string key onto the ring: FNV-1a folded through the
// SplitMix64 finalizer for avalanche. Deterministic across processes —
// a restarted coordinator computes identical placements.
func hashKey(key string) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return hashpr.Mixer{Seed: ringSeed}.Hash(h)
}

// ownerOf maps one element to the index (0..fan-1) of the node share it
// belongs to under element fan-out — the cluster-level analogue of the
// engine's element→shard split. Like that split, ANY deterministic
// assignment is correct (decisions are pure in the element, so no split
// can change a verdict); hashing the membership keeps co-arriving
// elements of one set spread across nodes instead of hot-spotting one.
// Each member is folded in with one xor and one multiply, the
// instance's seeded SplitMix64 finalizer avalanches the fold once, and
// the high word of hash×fan picks the share without a division.
func ownerOf(m hashpr.Mixer, el osp.Element, fan int) int {
	const prime = 0x9e3779b97f4a7c15 // odd, so each fold step is invertible
	h := uint64(len(el.Members))
	for _, s := range el.Members {
		h = (h ^ uint64(s)) * prime
	}
	owner, _ := bits.Mul64(m.Hash(h), uint64(fan))
	return int(owner)
}

// validateSlot bounds-checks a slot index against the ring.
func (r *Ring) validateSlot(slot int) error {
	if slot < 0 || slot >= r.slots {
		return fmt.Errorf("cluster: slot %d out of range [0, %d)", slot, r.slots)
	}
	return nil
}
