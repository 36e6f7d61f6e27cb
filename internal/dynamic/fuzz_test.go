package dynamic

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/task"
)

// Fuzz harnesses for the file-format parsers: the CSV/JSONL arrival
// trace loaders, the speed-column (resource,speed) profile loaders and
// the churn-event schedule loaders.
// The contract under fuzzing is uniform — malformed input must return
// an error, never panic, and anything accepted must satisfy the
// loaders' validation guarantees (weights ≥ 1, speeds positive and
// finite, in-range unique resources, schedules that pass
// ValidateEvents) — so replayed production logs and
// fleet inventories can never smuggle invalid state into a run. Seed
// corpora live in testdata/fuzz/<FuzzName>/ alongside the f.Add seeds
// below; run with
//
//	go test -run '^$' -fuzz FuzzReadTraceCSV -fuzztime 30s ./internal/dynamic
//
// (one target per invocation; CI smoke-runs all six).

func FuzzReadTraceCSV(f *testing.F) {
	f.Add([]byte("round,weight\n0,1\n1,2.5\n"))
	f.Add([]byte("# comment\n3,1\n0,20\n3,1.25\n"))
	f.Add([]byte("0,0.5\n"))
	f.Add([]byte("-1,2\n"))
	f.Add([]byte("x,y\n"))
	f.Add([]byte("0,1,2\n"))
	f.Add([]byte(",\n"))
	f.Add([]byte("9999999,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTraceCSV(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		for round, ws := range tr.Rounds {
			for _, w := range ws {
				if !task.ValidWeight(w) {
					t.Fatalf("accepted invalid weight %v in round %d", w, round)
				}
			}
		}
	})
}

func FuzzReadTraceJSONL(f *testing.F) {
	f.Add([]byte(`{"round":0,"weight":1}`))
	f.Add([]byte("{\"round\":2,\"weight\":3.5}\n# c\n\n{\"round\":0,\"weight\":1}\n"))
	f.Add([]byte(`{"round":-1,"weight":1}`))
	f.Add([]byte(`{"round":0,"weight":0.1}`))
	f.Add([]byte(`{"round":0,"weight":1e308}`))
	f.Add([]byte(`{"round":0,"weight":1,"extra":2}`))
	f.Add([]byte("{"))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTraceJSONL(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		for round, ws := range tr.Rounds {
			for _, w := range ws {
				if !task.ValidWeight(w) {
					t.Fatalf("accepted invalid weight %v in round %d", w, round)
				}
			}
		}
	})
}

// checkFuzzedSpeeds validates the acceptance guarantees shared by both
// speed parsers.
func checkFuzzedSpeeds(t *testing.T, speeds []float64, n int) {
	t.Helper()
	if len(speeds) != n {
		t.Fatalf("accepted profile has %d entries for n=%d", len(speeds), n)
	}
	for r, s := range speeds {
		if !ValidSpeed(s) {
			t.Fatalf("accepted invalid speed %v for resource %d", s, r)
		}
	}
}

func FuzzReadSpeedsCSV(f *testing.F) {
	f.Add([]byte("resource,speed\n0,10\n2,2.5\n"), 8)
	f.Add([]byte("# fleet\n1,1\n"), 4)
	f.Add([]byte("0,0\n"), 4)
	f.Add([]byte("-1,1\n"), 4)
	f.Add([]byte("0,1\n0,2\n"), 4)
	f.Add([]byte("0,NaN\n"), 4)
	f.Add([]byte("0,+Inf\n"), 4)
	f.Add([]byte("7,1\n"), 4)
	f.Add([]byte("a,b\n"), 0)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<12 {
			n = 16 // keep the dense output small; size is not the target
		}
		speeds, err := ReadSpeedsCSV(bytes.NewReader(data), n)
		if err != nil {
			return
		}
		checkFuzzedSpeeds(t, speeds, n)
	})
}

func FuzzReadSpeedsJSONL(f *testing.F) {
	f.Add([]byte(`{"resource":0,"speed":2}`), 4)
	f.Add([]byte("{\"resource\":1,\"speed\":0.5}\n# c\n{\"resource\":0,\"speed\":10}\n"), 4)
	f.Add([]byte(`{"resource":-1,"speed":1}`), 4)
	f.Add([]byte(`{"resource":0,"speed":-2}`), 4)
	f.Add([]byte(`{"resource":0,"speed":null}`), 4)
	f.Add([]byte(`{"resource":9,"speed":1}`), 4)
	f.Add([]byte(`{"resource":0,"pace":1}`), 4)
	f.Add([]byte("{"), 4)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<12 {
			n = 16
		}
		speeds, err := ReadSpeedsJSONL(bytes.NewReader(data), n)
		if err != nil {
			return
		}
		checkFuzzedSpeeds(t, speeds, n)
	})
}

// checkFuzzedEvents checks that an accepted schedule passes the full
// schedule check over every round it can fire in.
func checkFuzzedEvents(t *testing.T, events []ChurnEvent, n int) {
	t.Helper()
	if err := ValidateEvents(events, n, math.MaxInt); err != nil {
		t.Fatalf("accepted schedule fails ValidateEvents: %v", err)
	}
}

func FuzzReadEventsCSV(f *testing.F) {
	f.Add([]byte("round,every,down,up\n# drill\n10,0,100,0\n30,0,0,100\n"), 1000)
	f.Add([]byte("5,50,3,3\r\n"), 16)
	f.Add([]byte("100,0,0,0\n"), 16)
	f.Add([]byte("-4,0,1,0\n"), 16)
	f.Add([]byte("10,0,1\n"), 16)
	f.Add([]byte("x,0,1,0\n"), 16)
	f.Add([]byte("9223372036854775807,1,1,0\n"), 16)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n <= 0 || n > 1<<12 {
			n = 16 // keep the schedule walk small; size is not the target
		}
		events, err := ReadEventsCSV(bytes.NewReader(data), n)
		if err != nil {
			return
		}
		checkFuzzedEvents(t, events, n)
	})
}

func FuzzReadEventsJSONL(f *testing.F) {
	f.Add([]byte(`{"round":40,"down_list":[0,1,2]}`+"\n"+`{"round":80,"up_list":[0,1,2]}`), 16)
	f.Add([]byte(`{"round":5,"every":20,"down":2,"up":2}`), 16)
	f.Add([]byte(`{"round":5,"every":10,"down_list":[0]}`+"\n"+`{"round":9,"every":10,"up_list":[0]}`), 16)
	f.Add([]byte(`{"round":10,"down_list":[7]}`+"\n"+`{"round":20,"down_list":[7]}`), 16)
	f.Add([]byte(`{"round":10,"up_list":[7]}`), 16)
	f.Add([]byte(`{"round":0,"down_list":[1],"up_list":[1]}`), 16)
	f.Add([]byte(`{"round":3,"down":1}{"round":4,"down":1}`), 16)
	f.Add([]byte(`{"down_list":[1]}`), 16)
	f.Add([]byte("null"), 16)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n <= 0 || n > 1<<12 {
			n = 16
		}
		events, err := ReadEventsJSONL(bytes.NewReader(data), n)
		if err != nil {
			return
		}
		checkFuzzedEvents(t, events, n)
	})
}
