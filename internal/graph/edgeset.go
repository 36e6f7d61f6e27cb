package graph

// edgeSet is a set of undirected edges {u, v} with u < v, each packed
// into the key u<<32 | v. It is an open-addressing table with linear
// probing, sized once for a maximum count at load factor at most 1/4:
// most probes then end at their first slot, which made RandomRegular's
// swap loop on 1000-vertex expanders twice as fast as a half-full
// table. Because v > u ≥ 0, no key is 0, so 0 marks an empty slot.
// Deletion shifts later members of the probe run back over the hole,
// so no tombstones build up however many edges are swapped in and out.
type edgeSet struct {
	slots []uint64
	shift uint // 64 − log2(len(slots)): a hash's top bits pick the home slot
}

// edgeKey packs the edge {u, v}, u < v, into a nonzero key.
func edgeKey(u, v int) uint64 { return uint64(u)<<32 | uint64(v) }

// newEdgeSet returns an empty set that holds up to n edges.
func newEdgeSet(n int) edgeSet {
	size, shift := 2, uint(63)
	for size < 4*n {
		size <<= 1
		shift--
	}
	return edgeSet{slots: make([]uint64, size), shift: shift}
}

// home returns k's preferred slot by Fibonacci hashing.
func (s *edgeSet) home(k uint64) int { return int((k * 0x9e3779b97f4a7c15) >> s.shift) }

// find returns the slot holding k, or the empty slot that ends k's
// probe run if k is absent.
func (s *edgeSet) find(k uint64) int {
	mask := len(s.slots) - 1
	i := s.home(k)
	for s.slots[i] != 0 && s.slots[i] != k {
		i = (i + 1) & mask
	}
	return i
}

// has reports whether k is in the set.
func (s *edgeSet) has(k uint64) bool { return s.slots[s.find(k)] == k }

// add inserts k, which must be nonzero. The caller keeps the count
// within what newEdgeSet sized the set for.
func (s *edgeSet) add(k uint64) { s.slots[s.find(k)] = k }

// remove deletes k if present. Each later key of the probe run moves
// back into the hole unless the hole lies cyclically before its home
// slot, so every key stays reachable from its home.
func (s *edgeSet) remove(k uint64) {
	i := s.find(k)
	if s.slots[i] == 0 {
		return
	}
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		if (j-s.home(s.slots[j]))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
}
