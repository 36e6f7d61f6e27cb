package dynamic

import (
	"errors"
	"fmt"

	"repro/internal/snapshot"
)

// Snapshot implements SnapshotStater. The tuner's persistent state is
// small: the decaying load estimates, the push-sum companion (up or
// speed mass) and the churned latch. The estimates are bit patterns of
// incrementally decayed sums, so they go as exact float bits and are
// never recomputed. Everything else — the diffusion ping-pong buffers,
// the threshold scratch, the bound shard closures — is refresh-time
// scratch that reading rebuilds, exactly as the lazy first Refresh
// would. Reading requires a fresh tuner of the checkpointed run's
// configuration, speeds already applied by the engine.
//
// OracleTuner deliberately does not implement SnapshotStater: its only
// field is a threshold scratch vector fully rewritten from core state
// at each refresh round, so a fresh oracle resumes bit-identically.
func (st *SelfTuner) Snapshot(c *snapshot.Codec) error {
	if c.Reading() && st.est != nil {
		return errors.New("dynamic: SelfTuner snapshot restore requires a fresh tuner")
	}
	inited := st.est != nil
	c.Bool(&inited)
	if !inited {
		return c.Err()
	}
	c.Float64s(&st.est)
	c.Float64s(&st.upw)
	c.Bool(&st.churned)
	if !c.Reading() || c.Err() != nil {
		return c.Err()
	}
	n := len(st.est)
	if len(st.upw) != n {
		return fmt.Errorf("dynamic: SelfTuner snapshot has %d mass entries for %d estimates", len(st.upw), n)
	}
	if st.speeds != nil && len(st.speeds) != n {
		return fmt.Errorf("dynamic: SelfTuner snapshot covers %d resources, speed profile has %d", n, len(st.speeds))
	}
	st.thr = make([]float64, n)
	st.zEst = make([]float64, n)
	st.zEstNext = make([]float64, n)
	st.decayFn = st.decayShard
	st.diffuseFn = st.diffuseShard
	st.thrFn = st.thresholdShard
	st.churned = st.churned || st.speeds != nil
	if st.churned {
		st.zUp = make([]float64, n)
		st.zUpNext = make([]float64, n)
	}
	return nil
}

// Interface conformance, pinned at compile time.
var _ SnapshotStater = (*SelfTuner)(nil)
