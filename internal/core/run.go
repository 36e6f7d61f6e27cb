package core

// RunOptions configures a protocol run.
type RunOptions struct {
	// MaxRounds caps the run; 0 means DefaultMaxRounds.
	MaxRounds int
	// RecordPotential stores Φ(t) before every round (plus the final
	// state) in the result — used by the drift-analysis experiments.
	RecordPotential bool
	// RecordMaxLoad stores the max load trajectory likewise.
	RecordMaxLoad bool
	// CheckInvariants validates conservation after every round
	// (slow; tests only).
	CheckInvariants bool
	// OnRound, if non-nil, is invoked after every completed round with
	// the live state (read-only use expected), the 1-based round number
	// and that round's stats — the hook behind load-trajectory tracing.
	OnRound func(s *State, round int, st StepStats)
}

// DefaultMaxRounds bounds runaway runs; the paper's regimes finish in
// at most a few thousand rounds at the experiment sizes.
const DefaultMaxRounds = 2_000_000

// RunResult reports a completed run.
type RunResult struct {
	// Rounds is the number of rounds executed until balance (or cap).
	Rounds int
	// Balanced reports whether the run reached the all-loads-≤-T state.
	Balanced bool
	// Migrations counts every task move.
	Migrations int64
	// MovedWeight is the total migrated weight.
	MovedWeight float64
	// PotentialTrace, if recorded, holds Φ(0), Φ(1), …, Φ(Rounds).
	PotentialTrace []float64
	// MaxLoadTrace, if recorded, holds the max load per round likewise.
	MaxLoadTrace []float64
}

// Run executes p on s until balanced or the round cap, returning the
// balancing statistics. The state is mutated in place.
func Run(s *State, p Protocol, opts RunOptions) RunResult {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	var res RunResult
	record := func() {
		if opts.RecordPotential {
			res.PotentialTrace = append(res.PotentialTrace, s.Potential())
		}
		if opts.RecordMaxLoad {
			res.MaxLoadTrace = append(res.MaxLoadTrace, s.MaxLoad())
		}
	}
	record()
	for res.Rounds = 0; res.Rounds < maxRounds; {
		if s.Balanced() {
			res.Balanced = true
			return res
		}
		st := s.Step(p)
		res.Rounds++
		res.Migrations += int64(st.Migrations)
		res.MovedWeight += st.MovedWeight
		record()
		if opts.OnRound != nil {
			opts.OnRound(s, res.Rounds, st)
		}
		if opts.CheckInvariants {
			if err := s.CheckInvariants(); err != nil {
				panic("core: invariant violated after round: " + err.Error())
			}
		}
	}
	res.Balanced = s.Balanced()
	return res
}
