package explore

import (
	"slices"

	"weakestfd/internal/sim"
)

// State-hash join cache for the source-DPOR engine: when two explored
// prefixes of one (pattern, oracle) configuration commute into the same
// state at the branch horizon, the tail beyond the horizon — which branches
// no further and runs under the deterministic fair round-robin — is executed
// once and reused.
//
// Soundness. A join key is taken at step depth h = Config.MaxDepth, only
// when h < Budget (a fair tail exists), and is composed of:
//
//   - the access log's state digest (sim.AccessLog.StateDigest): every
//     shared object's current-value fingerprint plus every process's rolling
//     observation hash, whose per-step marker makes it a per-process program
//     counter. Equal digests mean (up to 64-bit collisions) identical shared
//     state and identical machine local states, because a machine's local
//     state is a deterministic function of its observation sequence. The
//     environment's own history-object accesses (flip writes and
//     boundary-guard reads) are sealed out of the observation hashes
//     (sim.AccessLog.SealEnv): they are charged to whichever step runs at
//     the flip's absolute time, not observed by it, and the env component
//     below carries the information instead;
//   - the detector environment's outputs digest at h
//     (sim.QuerySeam.OutputsDigest): per registered history, the output a
//     query at h would observe plus every still-pending flip's (time,
//     post-flip output). Equal env components mean the continuations query
//     identical presents and face identical futures; because the pending
//     schedule is folded in, prefixes reaching h on opposite sides of a flip
//     can never be identified even when the observable outputs happen to
//     coincide;
//   - the round-robin rotation state entering the tail (the last granted
//     PID, or fresh when the forced prefix covered the whole horizon), so
//     identical states continued by differently-rotated fair tails are
//     never identified;
//   - a fingerprint of the forced prefix's not-yet-executed suffix, when the
//     wakeup sequence extends past the horizon: those grants override the
//     fair tail, so two runs may join only when they agree on the pending
//     grants too.
//
// Both runs are at the same global time (t = h: time advances one per step),
// the crash pattern fires at absolute times, and flips fire at absolute
// times, so equal keys imply the continuations are *identical runs*, step
// for step — not merely equivalent. The joiner therefore stops executing at
// h, splices the cached tail's access trace into its log (so the race
// analysis that drives further branching sees the complete run), counts the
// cached tail's step/settledness facts, and skips property checking: the
// first visitor checked the identical run, and the explorer deduplicates
// violations per (pattern, oracle, property), so a joiner's checks can
// contribute nothing the first visitor's did not.
//
// The cache is bounded by Config.MaxStates entries per configuration; once
// full it stops admitting new states (Result.StateCapped) but keeps probing
// existing ones — joins degrade, coverage does not.

// joinKey identifies a state at the branch horizon.
type joinKey struct {
	digest  uint64
	env     uint64 // QuerySeam.OutputsDigest at the horizon
	pending uint64 // pidSeqFP of forced-prefix grants past the horizon, 0 none
	rr      int16  // RR rotation entering the tail: last granted PID, -1 fresh
}

// pidSeqFP fingerprints a grant sequence (FNV-1a over PID+1 so a leading
// PID 0 is distinguishable from the empty sequence's 0).
func pidSeqFP(pids []sim.PID) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, p := range pids {
		h = (h ^ uint64(p+1)) * 0x100000001b3
	}
	return h
}

// tailStep is one cached tail step: its process and the span of its access
// set in the cache's access slab.
type tailStep struct {
	p          sim.PID
	start, end int32
}

// joinEntry is the reusable continuation of a state: spans of the cache's
// slabs holding the tail's steps and grants, and the run facts the joiner
// reports instead of measuring.
type joinEntry struct {
	stepLo, stepHi   int // tail steps: joinCache.steps[stepLo:stepHi]
	grantLo, grantHi int // tail grants: joinCache.grants[grantLo:grantHi]
	steps            int64
	settled          bool
}

// joinCache maps horizon states to their continuations for one
// configuration's search (single-goroutine access; no locking). Every
// entry's tail lives in three append-only slabs, so admitting a state costs
// amortized copying into them rather than an allocation per tail step.
type joinCache struct {
	max    int
	m      map[joinKey]joinEntry
	steps  []tailStep
	acc    []sim.Access
	grants []sim.PID
	capped bool
}

func newJoinCache(max int) *joinCache {
	return &joinCache{max: max, m: make(map[joinKey]joinEntry)}
}

// get returns the cached continuation for key, reporting whether there is
// one.
func (c *joinCache) get(key joinKey) (joinEntry, bool) {
	e, ok := c.m[key]
	return e, ok
}

// put records a continuation: the tail portion of the log (steps from
// horizon on) and of the grant sequence, copied into the slabs. Returns
// false when the entry cap is hit (the state is not admitted).
func (c *joinCache) put(key joinKey, log *sim.AccessLog, granted []sim.PID, horizon int, steps int64, settled bool) bool {
	if len(c.m) >= c.max {
		c.capped = true
		return false
	}
	ent := joinEntry{steps: steps, settled: settled, stepLo: len(c.steps), grantLo: len(c.grants)}
	if horizon < len(granted) {
		c.grants = append(slabGrow(c.grants, len(granted)-horizon), granted[horizon:]...)
	}
	c.steps = slabGrow(c.steps, log.Steps()-horizon)
	for i := horizon; i < log.Steps(); i++ {
		p, acc := log.Step(i)
		start := int32(len(c.acc))
		c.acc = append(slabGrow(c.acc, len(acc)), acc...)
		c.steps = append(c.steps, tailStep{p: p, start: start, end: int32(len(c.acc))})
	}
	ent.stepHi, ent.grantHi = len(c.steps), len(c.grants)
	c.m[key] = ent
	return true
}

// slabGrow makes room for n more elements in slab, at least doubling its
// capacity when it must grow: append alone grows large slices by a quarter,
// which would make the copies of a growing slab cost several times its final
// size.
func slabGrow[T any](slab []T, n int) []T {
	if len(slab)+n <= cap(slab) {
		return slab
	}
	return slices.Grow(slab, max(n, cap(slab)))
}

// splice appends e's cached tail to a joined run: its steps to log, so the
// race analysis sees the complete run, and its grants to granted, which it
// returns.
func (c *joinCache) splice(e joinEntry, log *sim.AccessLog, granted []sim.PID) []sim.PID {
	for _, ts := range c.steps[e.stepLo:e.stepHi] {
		log.AppendStep(ts.p, c.acc[ts.start:ts.end])
	}
	return append(granted, c.grants[e.grantLo:e.grantHi]...)
}
