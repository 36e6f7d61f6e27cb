package dynamic

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/lineio"
)

// Churn-event ingestion: scripted failure schedules — hand-written or
// exported from a compiled recovery.FailureModel — load from files in
// the engine's usual two line formats:
//
//	CSV:   round,every,down,up      (optional header; random-count
//	                                 bursts only)
//	JSONL: {"round":40,"down_list":[0,1,2]}   one event per line, with
//	       optional "every", "down", "up", "down_list", "up_list" keys
//
// Beyond per-field parsing, the loader runs the full ValidateEvents
// schedule check — killing an already-down resource or reviving an
// already-up one is a config error, not a mid-run surprise — and maps
// the offending event back to its source line, so a broken schedule
// fails with "line 7: round 80: kills resource 3, which the schedule
// already downed".

// ReadEventsCSV parses round,every,down,up records from r.
func ReadEventsCSV(r io.Reader, n int) ([]ChurnEvent, error) {
	var events []ChurnEvent
	var lines []int
	err := lineio.CSV(r, 4, "round", func(line int, f []string) error {
		var ev ChurnEvent
		for i, dst := range []*int{&ev.Round, &ev.Every, &ev.Down, &ev.Up} {
			v, err := strconv.Atoi(f[i])
			if err != nil {
				return fmt.Errorf("bad field %q", f[i])
			}
			*dst = v
		}
		if ev.Down == 0 && ev.Up == 0 {
			return fmt.Errorf("event fires nothing (no down/up counts)")
		}
		events = append(events, ev)
		lines = append(lines, line)
		return nil
	})
	if err == nil {
		err = validateLoadedEvents(events, lines, n)
	}
	if err != nil {
		return nil, fmt.Errorf("dynamic: events csv %w", err)
	}
	return events, nil
}

// eventRecord is one parsed JSONL churn event. Round is a pointer so
// an omitted round fails loudly instead of silently firing at round 0.
type eventRecord struct {
	Round    *int  `json:"round"`
	Every    int   `json:"every"`
	Down     int   `json:"down"`
	Up       int   `json:"up"`
	DownList []int `json:"down_list"`
	UpList   []int `json:"up_list"`
}

// ReadEventsJSONL parses one churn-event object per line.
func ReadEventsJSONL(r io.Reader, n int) ([]ChurnEvent, error) {
	var events []ChurnEvent
	var lines []int
	err := lineio.JSONL(r, lineio.MaxLine, func(line int, rec *eventRecord) error {
		if rec.Round == nil {
			return fmt.Errorf("record must carry \"round\"")
		}
		if rec.Down == 0 && rec.Up == 0 && len(rec.DownList) == 0 && len(rec.UpList) == 0 {
			return fmt.Errorf("event fires nothing (no down/up counts or lists)")
		}
		events = append(events, ChurnEvent{
			Round: *rec.Round, Every: rec.Every, Down: rec.Down, Up: rec.Up,
			DownList: rec.DownList, UpList: rec.UpList,
		})
		lines = append(lines, line)
		return nil
	})
	if err == nil {
		err = validateLoadedEvents(events, lines, n)
	}
	if err != nil {
		return nil, fmt.Errorf("dynamic: events jsonl %w", err)
	}
	return events, nil
}

// validateLoadedEvents runs the schedule check and translates event
// indices into source line numbers. The horizon covers every one-shot
// round and many periods of any repeating event (ValidateEvents caps
// the walk), so load-time validation matches what a run would see.
func validateLoadedEvents(events []ChurnEvent, lines []int, n int) error {
	horizon := 1
	for _, ev := range events {
		if ev.Every > 0 {
			// Repeating events walk ValidateEvents' own firing cap; an
			// unbounded horizon lets them.
			horizon = math.MaxInt
			break
		}
		if ev.Round >= horizon && ev.Round < math.MaxInt {
			horizon = ev.Round + 1
		}
	}
	err := ValidateEvents(events, n, horizon)
	if err == nil {
		return nil
	}
	var ee *EventError
	if errors.As(err, &ee) && ee.Event >= 0 && ee.Event < len(lines) {
		return fmt.Errorf("line %d: round %d: %s", lines[ee.Event], ee.Round, ee.Msg)
	}
	return err
}

// LoadEventsFile reads a churn-event schedule for an n-resource system
// from path, picking the format by extension: .csv → CSV,
// .jsonl/.ndjson/.json → JSONL.
func LoadEventsFile(path string, n int) ([]ChurnEvent, error) {
	return lineio.Load("dynamic: events", path,
		func(r io.Reader) ([]ChurnEvent, error) { return ReadEventsCSV(r, n) },
		func(r io.Reader) ([]ChurnEvent, error) { return ReadEventsJSONL(r, n) })
}
