package tracer

import "backtrace/internal/ids"

// root is one starting point of the forward trace: a local object together
// with the distance of the root it represents (0 for persistent and
// application roots, the inref distance otherwise).
type root struct {
	obj  ids.ObjID
	dist int
}

// markResult is the outcome of the forward marking phase.
type markResult struct {
	// marked maps every reached object to the distance of the root whose
	// trace first reached it (the minimum, because roots are processed in
	// ascending distance order with single marking).
	marked *MarkSet
	// outrefDist is the new estimated distance of each outref the trace
	// reached: one plus the distance of the inref being traced when first
	// reached (Section 3).
	outrefDist map[ids.Ref]int
	// missingOutrefs lists remote references encountered in reachable
	// objects for which the outref table has no entry — a protocol
	// invariant violation surfaced for tests.
	missingOutrefs []ids.Ref
	// objectsTraced counts object scans (each object exactly once on the
	// one-worker path; rescans on improvement with several workers).
	objectsTraced int64
}
