package rng

import "fmt"

// Generator state export/import for checkpoint/restore. A Rand's
// position in its stream is its four state words plus a kind tag; the
// tag keeps snapshot files self-describing, so a checkpoint written by
// another generator family fails to restore instead of resuming on the
// wrong stream.

// KindXoshiro256 is the kind tag of Rand's xoshiro256++ state, stable
// across releases — it is written into snapshot files. Tags 1 and 3
// named retired generators; do not reuse them.
const KindXoshiro256 uint8 = 2

// State exports the generator's kind tag and raw state words.
func (r *Rand) State() (kind uint8, words [4]uint64) {
	return KindXoshiro256, [4]uint64{r.s0, r.s1, r.s2, r.s3}
}

// SetState replaces the generator's position with a previously
// exported (kind, words) pair. The kind must be KindXoshiro256.
func (r *Rand) SetState(kind uint8, words [4]uint64) error {
	if kind != KindXoshiro256 {
		return fmt.Errorf("rng: state kind %d is not xoshiro256++ (kind %d)", kind, KindXoshiro256)
	}
	r.s0, r.s1, r.s2, r.s3 = words[0], words[1], words[2], words[3]
	return nil
}
