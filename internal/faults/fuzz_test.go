package faults

import (
	"bytes"
	"testing"
)

// The loader contract under fuzzing: malformed fault-plan rows and
// directive objects must error (with a line number), never panic, and
// any plan that loads successfully must re-validate cleanly against
// the same fleet size — the loaders never hand the engine a plan that
// Validate would reject.

func checkLoadedPlan(t *testing.T, p *Plan, n int) {
	t.Helper()
	if p == nil {
		t.Fatal("loader returned nil plan without error")
	}
	if err := p.Validate(n); err != nil {
		t.Fatalf("loaded plan fails re-validation: %v", err)
	}
	for _, pr := range []float64{p.Loss, p.DelayProb, p.DupProb} {
		if pr < 0 || pr >= 1 || pr != pr {
			t.Fatalf("loaded probability %v out of [0,1)", pr)
		}
	}
	for i, w := range p.Partitions {
		if len(w.Members) == 0 || len(w.Members) >= n {
			t.Fatalf("partition %d loaded with %d members against fleet %d", i, len(w.Members), n)
		}
	}
}

func FuzzReadPlanCSV(f *testing.F) {
	f.Add([]byte("kind,a,b,c\nloss,0.01\ndelay,0.05,4\n"), 16)
	f.Add([]byte("# plan\nloss,0.1\nretry,1,8,30\nseed,7\n"), 16)
	f.Add([]byte("partition,100,200,0-3\n"), 16)
	f.Add([]byte("partition,100,200,0;2;5-7\ndup,0.001\n"), 16)
	f.Add([]byte("loss,1.5\n"), 16)
	f.Add([]byte("loss,NaN\n"), 16)
	f.Add([]byte("delay,0.5\n"), 16)
	f.Add([]byte("partition,200,100,0-3\n"), 16)
	f.Add([]byte("partition,0,10,0-99\n"), 16)
	f.Add([]byte("partition,0,10,3-1\n"), 16)
	f.Add([]byte("retry,8,1,30\n"), 16)
	f.Add([]byte("bogus,1\n"), 16)
	f.Add([]byte(",\n"), 16)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 2 || n > 1<<12 {
			n = 16 // partitions validate against the fleet; keep it small
		}
		p, err := ReadPlanCSV(bytes.NewReader(data), n, nil)
		if err != nil {
			return
		}
		checkLoadedPlan(t, p, n)
	})
}

func FuzzReadPlanJSONL(f *testing.F) {
	f.Add([]byte(`{"loss": 0.01}`), 16)
	f.Add([]byte("{\"delay_prob\":0.05,\"delay_max\":4}\n{\"dup\":0.001}\n"), 16)
	f.Add([]byte(`{"retry_base":1,"retry_cap":8,"timeout":30,"seed":7}`), 16)
	f.Add([]byte(`{"partition":{"start":100,"end":200,"members":[0,1,2]}}`), 16)
	f.Add([]byte(`{"partition":{"start":100,"end":200,"ranges":"0-3;5"}}`), 16)
	f.Add([]byte(`{"partition":{"start":100,"end":200}}`), 16)
	f.Add([]byte(`{"partition":{"start":100,"end":200,"members":[0],"ranges":"1"}}`), 16)
	f.Add([]byte(`{"loss":2}`), 16)
	f.Add([]byte(`{}`), 16)
	f.Add([]byte(`{"unknown":1}`), 16)
	f.Add([]byte(`{"loss":0.1} trailing`), 16)
	f.Add([]byte("{"), 16)
	f.Add([]byte("null"), 16)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 2 || n > 1<<12 {
			n = 16
		}
		p, err := ReadPlanJSONL(bytes.NewReader(data), n, nil)
		if err != nil {
			return
		}
		checkLoadedPlan(t, p, n)
	})
}
