package faults

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/lineio"
)

// Fault-plan ingestion: unreliable-network scenarios — hand-written or
// generated — load from files in the engine's usual two line formats:
//
//	CSV:   kind,a,b,c          (optional "kind,..." header)
//	         loss,P
//	         delay,P,MAX
//	         dup,P
//	         retry,BASE,CAP,TIMEOUT
//	         seed,S
//	         partition,START,END,MEMBERS   members as ranges "0-99;256;300-310"
//	JSONL: one directive object per line:
//	         {"loss": 0.01}
//	         {"delay_prob": 0.05, "delay_max": 4}
//	         {"dup": 0.001}
//	         {"retry_base": 1, "retry_cap": 8, "timeout": 30}
//	         {"seed": 7}
//	         {"partition": {"start": 100, "end": 200, "members": [0,1,2]}}
//
// Mirroring the churn-event loader, every parse or validation error
// carries its source line number, and the assembled plan runs the full
// Validate check against the fleet size before it is returned — a
// partition window that isolates the whole fleet is a load error
// naming its line, not a mid-run surprise.

// MemberResolver maps a failure-domain name (a rack or zone label) to
// its member resources, letting partition directives say
// "partition,100,200,rack3" instead of spelling out index ranges.
// recovery.(*Topology).Resolve satisfies it.
type MemberResolver func(name string) ([]int, bool)

// planArity is the field count after the kind of each CSV directive.
var planArity = map[string]int{"loss": 1, "delay": 2, "dup": 1, "retry": 3, "seed": 1, "partition": 3}

// ReadPlanCSV parses kind,a,b,c fault directives from r for an
// n-resource fleet. A non-nil resolve lets partition member lists mix
// index ranges with rack/zone names ("0-99;rack3;zone1"); nil accepts
// indices only.
func ReadPlanCSV(r io.Reader, n int, resolve MemberResolver) (*Plan, error) {
	p := &Plan{}
	var partLines []int
	err := lineio.CSV(r, -1, "kind", func(line int, f []string) error {
		kind, args := strings.ToLower(f[0]), f[1:]
		want, ok := planArity[kind]
		if !ok {
			return fmt.Errorf("unknown directive %q (want loss, delay, dup, retry, seed or partition)", kind)
		}
		if len(args) != want {
			return fmt.Errorf("%q takes %d fields, got %d", kind, want, len(args))
		}
		var err error
		switch kind {
		case "loss":
			p.Loss, err = parseProb(args[0])
		case "dup":
			p.DupProb, err = parseProb(args[0])
		case "delay":
			if p.DelayProb, err = parseProb(args[0]); err == nil {
				p.DelayMax, err = parseCount(args[1])
			}
		case "retry":
			for i, dst := range []*int{&p.RetryBase, &p.RetryCap, &p.Timeout} {
				if *dst, err = parseCount(args[i]); err != nil {
					return err
				}
			}
		case "seed":
			if p.Seed, err = strconv.ParseUint(args[0], 10, 64); err != nil {
				return fmt.Errorf("bad seed %q", args[0])
			}
		case "partition":
			var w Partition
			if w.Start, err = parseCount(args[0]); err != nil {
				return err
			}
			if w.End, err = parseCount(args[1]); err != nil {
				return err
			}
			if w.Members, err = parseMembersWith(args[2], resolve); err != nil {
				return err
			}
			p.Partitions = append(p.Partitions, w)
			partLines = append(partLines, line)
		}
		return err
	})
	if err == nil {
		err = validateLoadedPlan(p, partLines, n)
	}
	if err != nil {
		return nil, fmt.Errorf("faults: plan csv %w", err)
	}
	return p, nil
}

// planRecord is one parsed JSONL fault directive. Every field is a
// pointer so an absent key is distinguishable from an explicit zero,
// and one line may set several related fields at once.
type planRecord struct {
	Loss      *float64         `json:"loss"`
	DelayProb *float64         `json:"delay_prob"`
	DelayMax  *int             `json:"delay_max"`
	Dup       *float64         `json:"dup"`
	RetryBase *int             `json:"retry_base"`
	RetryCap  *int             `json:"retry_cap"`
	Timeout   *int             `json:"timeout"`
	Seed      *uint64          `json:"seed"`
	Partition *partitionRecord `json:"partition"`
}

// partitionRecord is the JSONL partition-window payload. Members and
// Ranges are alternatives: explicit resource IDs, or the CSV loader's
// "0-99;256" range syntax.
type partitionRecord struct {
	Start   *int   `json:"start"`
	End     *int   `json:"end"`
	Members []int  `json:"members"`
	Ranges  string `json:"ranges"`
}

// ReadPlanJSONL parses one fault-directive object per line for an
// n-resource fleet. A non-nil resolve lets a partition's "ranges"
// string mix index ranges with rack/zone names; nil accepts indices
// only.
func ReadPlanJSONL(r io.Reader, n int, resolve MemberResolver) (*Plan, error) {
	p := &Plan{}
	var partLines []int
	err := lineio.JSONL(r, lineio.MaxLine, func(line int, rec *planRecord) error {
		set := take(&p.Loss, rec.Loss) + take(&p.DelayProb, rec.DelayProb) +
			take(&p.DelayMax, rec.DelayMax) + take(&p.DupProb, rec.Dup) +
			take(&p.RetryBase, rec.RetryBase) + take(&p.RetryCap, rec.RetryCap) +
			take(&p.Timeout, rec.Timeout) + take(&p.Seed, rec.Seed)
		if pr := rec.Partition; pr != nil {
			set++
			if pr.Start == nil || pr.End == nil {
				return fmt.Errorf("partition must carry \"start\" and \"end\"")
			}
			if len(pr.Members) > 0 && pr.Ranges != "" {
				return fmt.Errorf("partition carries both \"members\" and \"ranges\"")
			}
			members := pr.Members
			if pr.Ranges != "" {
				var err error
				if members, err = parseMembersWith(pr.Ranges, resolve); err != nil {
					return err
				}
			}
			p.Partitions = append(p.Partitions, Partition{Start: *pr.Start, End: *pr.End, Members: members})
			partLines = append(partLines, line)
		}
		if set == 0 {
			return fmt.Errorf("directive sets nothing")
		}
		return nil
	})
	if err == nil {
		err = validateLoadedPlan(p, partLines, n)
	}
	if err != nil {
		return nil, fmt.Errorf("faults: plan jsonl %w", err)
	}
	return p, nil
}

// take copies a directive field the record carries into the plan and
// counts it.
func take[V any](dst, src *V) int {
	if src == nil {
		return 0
	}
	*dst = *src
	return 1
}

// validateLoadedPlan runs the full plan check and translates partition
// indices back into source line numbers.
func validateLoadedPlan(p *Plan, partLines []int, n int) error {
	err := p.Validate(n)
	if err == nil {
		return nil
	}
	msg := strings.TrimPrefix(err.Error(), "faults: ")
	// Partition errors name their index; map it to the defining line.
	var idx int
	if k, scanErr := fmt.Sscanf(msg, "partition %d:", &idx); scanErr == nil && k == 1 && idx >= 0 && idx < len(partLines) {
		return fmt.Errorf("line %d: %s", partLines[idx], msg)
	}
	return fmt.Errorf("invalid: %s", msg)
}

// LoadPlanFile reads a fault plan for an n-resource fleet from path,
// picking the format by extension: .csv → CSV, .jsonl/.ndjson/.json →
// JSONL. resolve is passed to the reader (nil accepts indices only).
func LoadPlanFile(path string, n int, resolve MemberResolver) (*Plan, error) {
	return lineio.Load("faults: plan", path,
		func(r io.Reader) (*Plan, error) { return ReadPlanCSV(r, n, resolve) },
		func(r io.Reader) (*Plan, error) { return ReadPlanJSONL(r, n, resolve) })
}

// parseMembersWith parses the loader's member-range syntax —
// semicolon- or space-separated entries, each a single resource ID
// "256" or an inclusive range "0-99" — into a member list, resolving
// non-numeric entries as failure-domain names when a resolver is
// supplied.
func parseMembersWith(spec string, resolve MemberResolver) ([]int, error) {
	var members []int
	for _, part := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ' ' }) {
		a, b, numeric := parseIndexRange(part)
		if !numeric {
			if resolve != nil {
				if domain, ok := resolve(part); ok {
					members = append(members, domain...)
					continue
				}
				return nil, fmt.Errorf("member entry %q is neither an index range nor a known rack/zone name", part)
			}
			return nil, fmt.Errorf("bad member range %q", part)
		}
		if b < a {
			return nil, fmt.Errorf("member range %q runs backwards", part)
		}
		if b-a >= 1<<20 {
			return nil, fmt.Errorf("member range %q spans %d resources", part, b-a+1)
		}
		for r := a; r <= b; r++ {
			members = append(members, r)
		}
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("empty member list %q", spec)
	}
	return members, nil
}

// parseIndexRange parses "256" or "0-99" into an inclusive [a, b]
// index pair; numeric is false when the entry is not index-shaped
// (e.g. a domain name like "rack3", including names containing
// hyphens).
func parseIndexRange(part string) (a, b int, numeric bool) {
	lo, hi, cut := strings.Cut(part, "-")
	a, err := strconv.Atoi(strings.TrimSpace(lo))
	if err != nil {
		return 0, 0, false
	}
	b = a
	if cut {
		if b, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil {
			return 0, 0, false
		}
	}
	return a, b, true
}

// parseProb parses a probability field (any float; range-checked by
// Plan.Validate, but NaN and absurd values fail here with the line).
func parseProb(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad probability %q", s)
	}
	if v < 0 || v >= 1 || v != v {
		return 0, fmt.Errorf("probability %v must be in [0,1)", v)
	}
	return v, nil
}

// parseCount parses a non-negative integer field.
func parseCount(s string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("bad count %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("count %d must be non-negative", v)
	}
	return v, nil
}
