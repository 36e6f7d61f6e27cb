package graph

import (
	"fmt"
	"testing"
)

// edgeSetKeys is the small key range FuzzEdgeSet draws from: the 64
// edges {u, v} with u < 8 ≤ v < 16, far more keys than its tables have
// slots, so homes collide and probe runs wrap past the table's end.
var edgeSetKeys = func() []uint64 {
	keys := make([]uint64, 64)
	for x := range keys {
		keys[x] = edgeKey(x/8, 8+x%8)
	}
	return keys
}()

// checkEdgeSetOps runs the operations data encodes on an edge set and
// on a map, and fails as soon as the two disagree on any key.
//
// data[0] picks a table of 2 to 32 slots, sized directly rather than
// by newEdgeSet so that it can run nearly full and grow long probe
// runs. Each later byte is one operation on edgeSetKeys[b&63]: b>>6 is
// 0 for has, 1 or 2 for add and 3 for remove. After every operation
// sameEdgeSet asks has of every key, so a has byte changes nothing
// itself. An add that would fill the last empty slot is skipped, as a
// caller keeps within the size the set was made for.
func checkEdgeSetOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	bits := 1 + uint(data[0])%5
	s := edgeSet{slots: make([]uint64, 1<<bits), shift: 64 - bits}
	ref := map[uint64]bool{}
	for step, b := range data[1:] {
		k, op := edgeSetKeys[b&63], b>>6
		switch {
		case op == 3:
			s.remove(k)
			delete(ref, k)
		case op > 0 && (ref[k] || len(ref) < len(s.slots)-1):
			s.add(k)
			ref[k] = true
		}
		if err := sameEdgeSet(&s, ref); err != nil {
			t.Fatalf("step %d, after op %d on %#x in %d slots: %v", step, op, k, len(s.slots), err)
		}
	}
}

// sameEdgeSet reports how s differs from ref in its count of occupied
// slots and over edgeSetKeys. It counts first: a set that stored a key
// twice may have no empty slot left, and then has would never return.
func sameEdgeSet(s *edgeSet, ref map[uint64]bool) error {
	used := 0
	for _, k := range s.slots {
		if k != 0 {
			used++
		}
	}
	if used != len(ref) {
		return fmt.Errorf("%d occupied slots, map holds %d keys", used, len(ref))
	}
	for _, k := range edgeSetKeys {
		if s.has(k) != ref[k] {
			return fmt.Errorf("has(%#x)=%v, map says %v", k, s.has(k), ref[k])
		}
	}
	return nil
}

// FuzzEdgeSet requires the open-addressing edge set to answer like a
// map after every has, add and remove.
func FuzzEdgeSet(f *testing.F) {
	for _, seed := range edgeSetSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkEdgeSetOps)
}

// edgeSetSeeds fills tables of every size nearly full with every key
// in turn and then removes them in a scrambled order, so probe runs
// wrap past the table's end and removals shift long runs back.
func edgeSetSeeds() [][]byte {
	var seeds [][]byte
	for bits := byte(0); bits < 5; bits++ {
		for stride := byte(1); stride < 64; stride += 6 {
			seed := []byte{bits}
			for x := byte(0); x < 64; x++ {
				seed = append(seed, 0x40|(x*stride)&63)
			}
			for x := byte(0); x < 64; x++ {
				seed = append(seed, 0xc0|(x*(stride+2))&63)
			}
			seeds = append(seeds, seed)
		}
	}
	return seeds
}

// TestNewEdgeSetLoad checks that newEdgeSet makes a power-of-two table
// at most a quarter full, whose shift picks a slot from a hash.
func TestNewEdgeSetLoad(t *testing.T) {
	for n := 0; n < 5000; n++ {
		s := newEdgeSet(n)
		size := len(s.slots)
		if size < 4*n || size < 2 || 1<<(64-s.shift) != size {
			t.Fatalf("newEdgeSet(%d): %d slots, shift %d", n, size, s.shift)
		}
	}
}
