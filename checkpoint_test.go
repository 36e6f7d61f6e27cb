package thresholdlb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckpointResumePublicAPI drives the exported checkpoint surface
// end to end — scenario-built engines, topology-aware locality
// re-homing (the "rehome" snapshot section), domain SLO alerts, a zone
// partition with lossy delivery — and pins the headline invariant: a
// run crashed mid-flight and resumed from its last checkpoint finishes
// with exactly the uninterrupted run's Result, and every checkpoint it
// writes is byte-identical to the baseline's.
func TestCheckpointResumePublicAPI(t *testing.T) {
	const n = 120
	topo, err := SynthTopology(n, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	build := func() DynamicScenario {
		return DynamicScenario{
			Graph:    CompleteGraph(n),
			Protocol: UserBased,
			Epsilon:  0.5,
			Rounds:   160,
			Window:   40,
			Arrivals: PoissonArrivals(0.85*n/1.95, ParetoDist(2, 20)),
			Service:  WeightProportionalService(1),
			Seed:     11,
			Workers:  4,
			Churn:    ChurnSpec{LeaveProb: 0.2, JoinProb: 0.2, MinUp: n / 2},
			Rehome:   LocalityRehome(topo),
			Domains:  ObsDomains(topo),
			Faults: &FaultPlan{
				Loss: 0.1, RetryBase: 1, RetryCap: 4, Timeout: 12,
				Partitions: []FaultPartition{PartitionZone(topo, 1, 40, 100)},
			},
			AlertBudget:     0.25,
			AlertWindows:    2,
			CheckpointEvery: 50,
			Obs:             NewObsBroker(),
		}
	}

	run := func(crashAt int, resume []byte) (DynamicResult, map[int][]byte, error) {
		sc := build()
		snaps := map[int][]byte{}
		sc.CrashAfterRound = crashAt
		sc.OnCheckpoint = func(round int, data []byte) error {
			snaps[round] = append([]byte(nil), data...)
			return nil
		}
		var res DynamicResult
		var err error
		if resume != nil {
			var eng *DynamicEngine
			if eng, err = sc.Resume(bytes.NewReader(resume)); err == nil {
				res, err = eng.Run()
				eng.Close()
			}
		} else {
			res, err = sc.Run()
		}
		sc.Obs.Close()
		return res, snaps, err
	}

	ref, baseSnaps, err := run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseSnaps) != 3 {
		t.Fatalf("baseline wrote %d checkpoints, want 3", len(baseSnaps))
	}

	_, crashSnaps, err := run(120, nil)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash run error = %v, want ErrCrashed", err)
	}
	for r, b := range crashSnaps {
		if !bytes.Equal(b, baseSnaps[r]) {
			t.Fatalf("crashed run's round-%d checkpoint differs from the baseline's", r)
		}
	}

	res, resSnaps, err := run(0, crashSnaps[100])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("resumed Result differs from baseline:\n%+v\nvs\n%+v", res, ref)
	}
	if !bytes.Equal(resSnaps[150], baseSnaps[150]) {
		t.Fatal("post-resume checkpoint differs from the baseline's")
	}
}

// TestManualEngineSnapshotFile drives the hand-stepped path: Engine()
// before any round, Checkpoint into an atomically-written file,
// Resume from that file, and a Result equal to the plain Run's.
func TestManualEngineSnapshotFile(t *testing.T) {
	build := func() DynamicScenario {
		return DynamicScenario{
			Graph:    CompleteGraph(50),
			Protocol: UserBased,
			Epsilon:  0.5,
			Rounds:   60,
			Window:   30,
			Arrivals: PoissonArrivals(0.8*50/1.95, ParetoDist(2, 20)),
			Service:  WeightProportionalService(1),
			Seed:     7,
			Workers:  2,
		}
	}
	ref, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}

	eng, err := build().Engine()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	path := filepath.Join(t.TempDir(), "ckpt.snap")
	if err := WriteSnapshotFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := build().Resume(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng2.Run()
	eng2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("resumed-from-round-0 Result differs from plain Run:\n%+v\nvs\n%+v", res, ref)
	}
}

// TestCheckpointBytesPinned pins the checkpoint format byte for byte.
// For each scenario it hashes every cadence checkpoint of a full run,
// a checkpoint taken by Engine before the first round, and every
// checkpoint a run resumed from the middle cadence checkpoint writes;
// the resumed run must write the full run's checkpoints and finish
// with its Result. The
// table reaches every section: meta, rng, tasks with initial weights,
// state, ups with a reachable set, quar, inj with loss, delay and
// duplication, tuner with and without speeds (and none under oracle
// thresholds), rehome, alerts, trace and a result holding recovery
// episodes and windows.
func TestCheckpointBytesPinned(t *testing.T) {
	const n = 64
	topo, err := SynthTopology(n, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = 1 + float64(i%4)
	}
	initial := ParetoWeights(90, 2, 20, 3)
	var rack1 []int
	for _, r := range topo.RackMembers(1) {
		rack1 = append(rack1, int(r))
	}
	cases := []struct {
		name   string
		build  func() DynamicScenario
		digest string
	}{
		{"oracle-initial-churn", func() DynamicScenario {
			return DynamicScenario{
				Graph:            CompleteGraph(n),
				Protocol:         UserBased,
				OracleThresholds: true,
				Rounds:           60,
				Window:           15,
				Arrivals:         PoissonArrivals(0.8*n/1.95, ParetoDist(2, 20)),
				Service:          WeightProportionalService(1),
				Seed:             5101,
				Workers:          2,
				Churn: ChurnSpec{LeaveProb: 0.2, JoinProb: 0.2, MinUp: n / 2,
					Events: []ChurnEvent{{Round: 15, Every: 20, Down: 6}}},
				InitialWeights: initial,
			}
		}, "e8ea9a4ae337bc86feade8888cfa5f924c166c1be9eb45a737dd0c6ea0a0bdcd"},
		{"faults-partition-quarantine", func() DynamicScenario {
			return DynamicScenario{
				Graph:    ExpanderGraph(n, 6, 5102),
				Protocol: ResourceBased,
				LazyWalk: true,
				Rounds:   80,
				Window:   20,
				Arrivals: PoissonArrivals(0.8*n/1.95, ParetoDist(2, 20)),
				Service:  WeightProportionalService(1),
				Seed:     5103,
				Workers:  3,
				Churn: ChurnSpec{LeaveProb: 0.4, JoinProb: 0.4, MinUp: n / 2,
					Events: []ChurnEvent{{Round: 10, Every: 30, Down: 5}}},
				Faults: &FaultPlan{
					Loss: 0.1, DelayProb: 0.2, DelayMax: 4, DupProb: 0.05,
					RetryBase: 1, RetryCap: 4, Timeout: 10,
					Partitions: []FaultPartition{PartitionRack(topo, 2, 20, 60)},
				},
				Quarantine: QuarantineSpec{Flaps: 2, Window: 20, Cooloff: 10},
			}
		}, "5b2b5f4bf93c6910f18b4af2f5ed134f27c383f22adee9926ff33a766340f998"},
		{"locality-alerts-speeds-trace", func() DynamicScenario {
			return DynamicScenario{
				Graph:    CompleteGraph(n),
				Speeds:   speeds,
				Protocol: UserBased,
				Rounds:   80,
				Window:   20,
				Arrivals: PoissonArrivals(0.7*2.5*n/1.95, ParetoDist(2, 20)),
				Service:  WeightProportionalService(1),
				Seed:     5104,
				Workers:  2,
				Churn: ChurnSpec{LeaveProb: 0.1, JoinProb: 0.2, MinUp: n / 2,
					Events: []ChurnEvent{{Round: 30, DownList: rack1}}},
				Rehome:       LocalityRehome(topo),
				Domains:      ObsDomains(topo),
				AlertBudget:  0.1,
				AlertWindows: 1,
				Faults:       &FaultPlan{Loss: 0.05, DelayProb: 0.1, DelayMax: 3, Timeout: 8},
				TraceSample:  0.5,
				Obs:          NewObsBroker(),
			}
		}, "6cf2c728f650bd6579ff652094e8b6725180c7b0e626f493ed0c1ec97f0fdf27"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			add := func(round int, data []byte) {
				fmt.Fprintf(h, "%d:%d:", round, len(data))
				h.Write(data)
			}
			run := func(resume []byte) (DynamicResult, []int, map[int][]byte) {
				sc := tc.build()
				sc.CheckpointEvery = 20
				snaps := map[int][]byte{}
				var rounds []int
				sc.OnCheckpoint = func(round int, data []byte) error {
					rounds = append(rounds, round)
					snaps[round] = append([]byte(nil), data...)
					return nil
				}
				var res DynamicResult
				var err error
				if resume == nil {
					res, err = sc.Run()
				} else {
					var eng *DynamicEngine
					if eng, err = sc.Resume(bytes.NewReader(resume)); err == nil {
						res, err = eng.Run()
						eng.Close()
					}
				}
				if sc.Obs != nil {
					sc.Obs.Close()
				}
				if err != nil {
					t.Fatal(err)
				}
				return res, rounds, snaps
			}

			ref, rounds, snaps := run(nil)
			if len(rounds) < 3 {
				t.Fatalf("full run wrote %d checkpoints, want at least 3", len(rounds))
			}
			if len(ref.Recoveries) == 0 || len(ref.Windows) == 0 {
				t.Fatalf("full run has %d recovery episodes and %d windows; the pin needs both",
					len(ref.Recoveries), len(ref.Windows))
			}
			for _, r := range rounds {
				add(r, snaps[r])
			}

			eng, err := tc.build().Engine()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			err = eng.Checkpoint(&buf)
			eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			add(0, buf.Bytes())

			mid := rounds[len(rounds)/2]
			res, resRounds, resSnaps := run(snaps[mid])
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("run resumed from round %d diverges from the full run", mid)
			}
			for _, r := range resRounds {
				if !bytes.Equal(resSnaps[r], snaps[r]) {
					t.Fatalf("round-%d checkpoint of the run resumed from round %d differs from the full run's", r, mid)
				}
				add(r, resSnaps[r])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("checkpoint digest %s, want %s", got, tc.digest)
			}
		})
	}
}
