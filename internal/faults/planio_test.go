package faults

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReadPlanCSV(t *testing.T) {
	const src = `kind,a,b,c
# an unreliable fortnight
loss,0.02
delay,0.05,4
dup,0.001
retry,1,8,30
seed,42
partition,100,200,0-3
partition,300,400,8;10;12-14
`
	p, err := ReadPlanCSV(strings.NewReader(src), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{
		Loss: 0.02, DelayProb: 0.05, DelayMax: 4, DupProb: 0.001,
		RetryBase: 1, RetryCap: 8, Timeout: 30, Seed: 42,
		Partitions: []Partition{
			{Start: 100, End: 200, Members: []int{0, 1, 2, 3}},
			{Start: 300, End: 400, Members: []int{8, 10, 12, 13, 14}},
		},
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("plan mismatch:\n got %+v\nwant %+v", p, want)
	}
}

func TestReadPlanJSONL(t *testing.T) {
	const src = `{"loss": 0.02}
# comment
{"delay_prob": 0.05, "delay_max": 4}
{"dup": 0.001}
{"retry_base": 1, "retry_cap": 8, "timeout": 30, "seed": 42}

{"partition": {"start": 100, "end": 200, "members": [0, 1, 2, 3]}}
{"partition": {"start": 300, "end": 400, "ranges": "8;10;12-14"}}
`
	p, err := ReadPlanJSONL(strings.NewReader(src), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := ReadPlanCSV(strings.NewReader(
		"loss,0.02\ndelay,0.05,4\ndup,0.001\nretry,1,8,30\nseed,42\npartition,100,200,0-3\npartition,300,400,8;10;12-14\n"), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, csv) {
		t.Fatalf("jsonl and csv forms of the same plan disagree:\n jsonl %+v\n csv   %+v", p, csv)
	}
}

// Every malformed input names its source line.
func TestPlanLoaderLineNumbers(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
		jsonl              bool
	}{
		{"csv bad prob", "loss,0.1\ndelay,2,4\n", "line 2", false},
		{"csv bad arity", "loss,0.1\ndup,0.1,9\n", "line 2", false},
		{"csv unknown kind", "loss,0.1\nchaos,1\n", "line 2", false},
		{"csv backwards range", "partition,0,10,9-3\n", "line 1", false},
		{"csv invalid window maps to its line", "loss,0.1\npartition,50,50,0-3\n", "line 2", false},
		{"csv isolating partition maps to its line", "loss,0.1\npartition,0,10,0-15\n", "line 2", false},
		{"csv retry cap below base", "retry,9,2,30\n", "RetryCap", false},
		{"jsonl bad json", "{\"loss\":0.1}\n{broken\n", "line 2", true},
		{"jsonl unknown field", "{\"loss\":0.1}\n{\"chaos\":1}\n", "line 2", true},
		{"jsonl empty directive", "{\"loss\":0.1}\n{}\n", "line 2", true},
		{"jsonl trailing data", "{\"loss\":0.1} 7\n", "line 1", true},
		{"jsonl trailing brace", "{\"loss\":0.1}}\n", "line 1: trailing data", true},
		{"jsonl trailing bracket", "{\"loss\":0.1}]\n", "line 1: trailing data", true},
		{"jsonl partition missing bounds", "{\"partition\":{\"members\":[1]}}\n", "line 1", true},
		{"jsonl partition members and ranges", "{\"partition\":{\"start\":0,\"end\":9,\"members\":[1],\"ranges\":\"2\"}}\n", "line 1", true},
		{"jsonl isolating partition maps to its line", "{\"loss\":0.1}\n{\"partition\":{\"start\":0,\"end\":9,\"ranges\":\"0-15\"}}\n", "line 2", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.jsonl {
				_, err = ReadPlanJSONL(strings.NewReader(tc.src), 16, nil)
			} else {
				_, err = ReadPlanCSV(strings.NewReader(tc.src), 16, nil)
			}
			if err == nil {
				t.Fatalf("accepted malformed plan %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name %q", err, tc.wantSub)
			}
		})
	}
}

func TestLoadPlanFile(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "plan.csv")
	if err := os.WriteFile(csvPath, []byte("loss,0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlanFile(csvPath, 8, nil)
	if err != nil || p.Loss != 0.1 {
		t.Fatalf("csv load: plan %+v err %v", p, err)
	}
	jPath := filepath.Join(dir, "plan.jsonl")
	if err := os.WriteFile(jPath, []byte(`{"dup": 0.25}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err = LoadPlanFile(jPath, 8, nil); err != nil || p.DupProb != 0.25 {
		t.Fatalf("jsonl load: plan %+v err %v", p, err)
	}
	if _, err = LoadPlanFile(filepath.Join(dir, "plan.yaml"), 8, nil); err == nil {
		t.Fatal("accepted unknown extension")
	}
	if _, err = LoadPlanFile(filepath.Join(dir, "absent.csv"), 8, nil); err == nil {
		t.Fatal("accepted missing file")
	}
}

func TestParseMembers(t *testing.T) {
	got, err := parseMembersWith("0-2;7 9-10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 7, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for _, bad := range []string{"", "x", "3-1", "1-9999999", "1;;x"} {
		if _, err := parseMembersWith(bad, nil); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	if err := (*Plan)(nil).Validate(8); err != nil {
		t.Fatalf("nil plan must validate: %v", err)
	}
	if (&Plan{}).Active() || (*Plan)(nil).Active() {
		t.Fatal("zero/nil plan reports active")
	}
	good := &Plan{Loss: 0.5, DelayProb: 0.1, DelayMax: 3,
		Partitions: []Partition{{Start: 0, End: 5, Members: []int{1, 2}}}}
	if err := good.Validate(8); err != nil {
		t.Fatal(err)
	}
	if !good.Active() {
		t.Fatal("plan with faults reports inactive")
	}
	bad := []*Plan{
		{Loss: 1},
		{Loss: -0.1},
		{Loss: math.NaN()},
		{DelayProb: math.NaN(), DelayMax: 2},
		{DupProb: math.NaN()},
		{DelayProb: 0.5},
		{DelayMax: -1},
		{RetryBase: -1},
		{RetryBase: 9, RetryCap: 2},
		{Partitions: []Partition{{Start: 5, End: 5, Members: []int{1}}}},
		{Partitions: []Partition{{Start: 0, End: 5}}},
		{Partitions: []Partition{{Start: 0, End: 5, Members: []int{0, 1, 2, 3, 4, 5, 6, 7}}}},
		{Partitions: []Partition{{Start: 0, End: 5, Members: []int{8}}}},
	}
	for i, p := range bad {
		if err := p.Validate(8); err == nil {
			t.Fatalf("bad plan %d (%+v) validated", i, p)
		}
	}
}
