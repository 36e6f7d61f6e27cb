package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/rng"
	"repro/internal/task"
)

// sortMigrationsReference is the comparison sort that ordered move
// batches before the radix sort, kept verbatim: the radix sort must
// reproduce its order element for element, ties included.
func sortMigrationsReference(moves, buf []Migration) {
	if len(moves) < 32 {
		for i := 1; i < len(moves); i++ {
			mv := moves[i]
			j := i - 1
			for j >= 0 && migrationLess(mv, moves[j]) {
				moves[j+1] = moves[j]
				j--
			}
			moves[j+1] = mv
		}
		return
	}
	for width := 1; width < len(moves); width *= 2 {
		for lo := 0; lo < len(moves); lo += 2 * width {
			mid := min(lo+width, len(moves))
			hi := min(lo+2*width, len(moves))
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if migrationLess(moves[j], moves[i]) {
					buf[k] = moves[j]
					j++
				} else {
					buf[k] = moves[i]
					i++
				}
				k++
			}
			copy(buf[k:hi], moves[i:mid])
			copy(buf[k+mid-i:hi], moves[j:hi])
		}
		copy(moves, buf[:len(moves)])
	}
}

// checkSortMatchesReference sorts a copy of moves both ways — the
// radix sort with a scratch extra moves longer than the batch, as
// callers' reused scratches are — and compares them element for
// element. Each move's weight is distinct, so a tie broken the other
// way shows.
func checkSortMatchesReference(t *testing.T, moves []Migration, extra int) {
	t.Helper()
	want := append([]Migration(nil), moves...)
	sortMigrationsReference(want, make([]Migration, len(want)))
	got := append([]Migration(nil), moves...)
	sortMigrations(got, make([]Migration, len(got)+extra))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%d moves: position %d holds %+v, reference %+v", len(moves), i, got[i], want[i])
		}
	}
}

// decodeMoves turns fuzz bytes into a move batch. data[0:2] pick the
// length (0–767, both sides of radixCutoff), data[2] and data[3] the
// bit widths of destinations and task IDs (0–31, so values reach
// 2³¹−1), data[4] the scratch's extra length; the remaining bytes,
// read cyclically, give each move its destination and ID. Narrow
// widths and short tails repeat (destination, ID) keys; each move's
// weight is its input position.
func decodeMoves(data []byte) (moves []Migration, extra int) {
	var hdr [5]byte
	copy(hdr[:], data)
	body := data[min(len(data), len(hdr)):]
	n := int(binary.LittleEndian.Uint16(hdr[:2])) % 768
	destMask := uint32(1)<<(hdr[2]%32) - 1
	idMask := uint32(1)<<(hdr[3]%32) - 1
	moves = make([]Migration, n)
	for i := range moves {
		var v [8]byte
		for j := range v {
			if len(body) > 0 {
				v[j] = body[(8*i+j)%len(body)]
			}
		}
		moves[i] = Migration{
			Task: task.Task{ID: int(binary.LittleEndian.Uint32(v[4:]) & idMask), Weight: float64(i)},
			Dest: int32(binary.LittleEndian.Uint32(v[:4]) & destMask),
		}
	}
	return moves, int(hdr[4] % 8)
}

// FuzzSortMigrations requires the radix sort to give the reference
// order on any decoded batch.
func FuzzSortMigrations(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		moves, extra := decodeMoves(data)
		checkSortMatchesReference(t, moves, extra)
	})
}

// TestSortMigrationsMatchesReference runs random batches of every
// length up to 300 and a few long ones, with key widths from all-equal
// to 31 bits, against the reference.
func TestSortMigrationsMatchesReference(t *testing.T) {
	r := rng.NewSeeded(15)
	lengths := []int{1000, 4096, 9951}
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		destBits, idBits := r.Intn(32), r.Intn(32)
		moves := make([]Migration, n)
		for i := range moves {
			moves[i] = Migration{
				Task: task.Task{ID: int(r.Uint64() >> (64 - idBits)), Weight: float64(i)},
				Dest: int32(r.Uint64() >> (64 - destBits)),
			}
		}
		checkSortMatchesReference(t, moves, r.Intn(8))
	}
}
