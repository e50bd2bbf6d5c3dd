package tracer

import (
	"fmt"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// OutsetAlgorithm selects how outsets of suspected inrefs are computed.
type OutsetAlgorithm int

const (
	// AlgoBottomUp is the Section 5.2 single-pass algorithm (default):
	// Tarjan SCCs, interned canonical outsets, memoized unions.
	AlgoBottomUp OutsetAlgorithm = iota + 1
	// AlgoIndependent is the Section 5.1 algorithm: an independent trace
	// from every suspected inref, possibly retracing objects.
	AlgoIndependent
)

// String returns the algorithm's name.
func (a OutsetAlgorithm) String() string {
	switch a {
	case AlgoBottomUp:
		return "bottom-up"
	case AlgoIndependent:
		return "independent"
	default:
		return fmt.Sprintf("OutsetAlgorithm(%d)", int(a))
	}
}

// Stats reports the cost of one local trace.
type Stats struct {
	// ObjectsTraced counts object scans by the forward marking phase: each
	// reached object exactly once on the one-worker path, plus rescans
	// after a mark improvement with several workers.
	ObjectsTraced int64
	// OutsetVisits counts object scans during outset computation.
	OutsetVisits int64
	// OutsetRetraced counts scans beyond an object's first during outset
	// computation (nonzero only for AlgoIndependent).
	OutsetRetraced int64
	// Unions and MemoHits count outset union operations and how many were
	// answered from the memo tables (AlgoBottomUp only).
	Unions   int64
	MemoHits int64
	// SuspectedInrefs and SuspectedOutrefs count the suspected iorefs at
	// this trace (ni and no in the paper's space bound).
	SuspectedInrefs  int
	SuspectedOutrefs int
	// Duration is the wall-clock time of the trace computation (forward
	// mark + outset computation), used to report trace latency when the
	// computation runs off the site lock.
	Duration time.Duration

	// Incremental reports whether the result was produced by the dirty-set
	// remark rather than a full forward mark.
	Incremental bool
	// FallbackReason names why an incremental-mode trace ran full; empty
	// when the remark ran (or the tracer was not in incremental mode).
	FallbackReason string
	// DirtySeeds counts the changed entities the remark relaxed from.
	DirtySeeds int
	// OutsetsReused reports whether the back information was carried over
	// unchanged from the previous trace instead of being recomputed.
	OutsetsReused bool

	// Workers is the number of mark workers the trace ran with (1 for the
	// inline path); Steals counts work-stealing events between their
	// deques. Scheduling-dependent, so excluded from result equivalence.
	Workers int
	Steals  int64
}

// Result is the outcome of one local trace, computed without mutating the
// heap or the ioref tables. The owning Site applies it (sweeping dead
// objects, trimming outrefs, installing distances and back information) at
// commit time; see Section 6.2 for why computation and installation are
// separated.
type Result struct {
	// Threshold is the suspicion threshold the trace classified with.
	Threshold int
	// Marked maps every object reached from a root (persistent roots,
	// application roots, and non-garbage-flagged inrefs) to the distance
	// of the first root that reached it, partitioned by heap shard.
	Marked *MarkSet
	// Dead lists the objects that were present and unreached — garbage to
	// sweep, in ascending order.
	Dead []ids.ObjID
	// OutrefDist maps each outref the trace reached to its new distance.
	OutrefDist map[ids.Ref]int
	// Untraced lists outrefs the trace did not reach — candidates for
	// trimming (ascending order). The commit skips any that are pinned or
	// barrier-cleaned by then.
	Untraced []ids.Ref
	// Missing lists remote references found in reachable objects with no
	// outref table entry; always empty unless a protocol invariant broke.
	Missing []ids.Ref
	// Back is the freshly computed back information for suspected iorefs.
	Back *BackInfo
	// Stats reports the trace's cost.
	Stats Stats
}

// IsCleanObj reports whether the trace classified a local object as clean
// (reached from a root at distance ≤ threshold).
func (r *Result) IsCleanObj(obj ids.ObjID) bool {
	d, ok := r.Marked.Get(obj)
	return ok && d <= r.Threshold
}

// IsLiveObj reports whether the trace reached the object at all.
func (r *Result) IsLiveObj(obj ids.ObjID) bool {
	_, ok := r.Marked.Get(obj)
	return ok
}

// computeOutsets runs the selected Section 5 algorithm over a finished
// forward mark.
func computeOutsets(env *outsetEnv, algo OutsetAlgorithm) (map[ids.ObjID][]ids.Ref, outsetStats) {
	if algo == AlgoIndependent {
		return outsetsIndependent(env)
	}
	return outsetsBottomUp(env)
}

// classifyOutrefs lists the table's outrefs the trace did not reach (in the
// table's ascending order) and counts the reached ones that are suspected
// (distance beyond threshold+1). It costs O(outrefs), not O(heap).
func classifyOutrefs(tbl *refs.Table, outrefDist map[ids.Ref]int, threshold int) (untraced []ids.Ref, suspected int) {
	for _, o := range tbl.Outrefs() {
		if _, ok := outrefDist[o.Target]; !ok {
			untraced = append(untraced, o.Target)
		}
	}
	for _, d := range outrefDist {
		if d > threshold+1 {
			suspected++
		}
	}
	return untraced, suspected
}
