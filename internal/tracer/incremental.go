package tracer

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// This file implements the incremental local trace: a dirty-set remark that
// reuses the previous trace's marks, outref distances, and back information,
// re-tracing only from what changed.
//
// The incremental path is exact, not approximate. It runs only when every
// change since the previous trace is monotone — edges and objects added,
// roots added, inref distances lowered — and for monotone changes the
// forward mark of Sections 2–3 is a minimum fixpoint: an object's mark is
// the smallest distance over the roots that reach it, and an outref's
// distance is one plus the smallest mark over its holders (saturating).
// Improve-only relaxation from the changed entities therefore converges to
// exactly the result a full trace would compute on the same snapshot. Any
// change that could raise a distance or revoke reachability (field or root
// removal, inref worsening, outref removal) invalidates that argument, and
// the tracer falls back to a full trace — so every committed result, on
// either path, is the paper's trace verbatim and the Section 6 safety story
// is unchanged.
//
// Back information is memoized at the granularity of the whole suspect
// region: the previous BackInfo is reused verbatim unless some relaxation
// or dirty edge touched a suspected entity (old or new distance beyond the
// threshold) or the suspected-inref membership changed — the events that
// can alter some inref's traced cone. Otherwise the Section 5 outset pass
// reruns on the snapshot, costing O(suspect region), not O(heap).

// Incremental carries trace-to-trace state for one site's incremental
// local traces. The zero value is ready to use; the first Run performs a
// full trace. Not safe for concurrent use — the owning site's trace mutex
// already serializes local traces.
type Incremental struct {
	// MaxDirtyRatio is the fallback knob: when the number of changed
	// entities exceeds this fraction of the heap size, an incremental
	// remark is unlikely to beat a plain full trace (which never pays the
	// per-seed bookkeeping), so the tracer runs full. Zero means
	// DefaultMaxDirtyRatio.
	MaxDirtyRatio float64

	// Workers selects the mark parallelism: above one, full-trace
	// fallbacks run the dense mark on a work-stealing pool and remarks
	// relax their seeds on one over the shard-partitioned mark set. The
	// committed result is identical either way; see dense.go for the
	// fixpoint argument.
	Workers int

	full    Marker // full traces, reusing its mark table
	prevRes *Result
	algo    OutsetAlgorithm

	// Counters for observability (cumulative over the site's lifetime).
	Runs          int64 // total Run calls
	FullTraces    int64 // runs that fell back to a full trace
	Remarks       int64 // runs that took the incremental path
	OutsetReuses  int64 // remarks that reused the previous BackInfo
	SeedsRelaxed  int64 // total dirty seeds processed by remarks
	ObjectsRemark int64 // total objects scanned by remarks
}

// DefaultMaxDirtyRatio is the fallback threshold used when MaxDirtyRatio
// is zero: above a quarter of the heap dirty, run a full trace.
const DefaultMaxDirtyRatio = 0.25

// Reset discards the previous trace's result so the next Run performs a
// full trace. Call it when a computed trace was abandoned before commit
// (its snapshot consumed the deltas but its result was thrown away).
func (inc *Incremental) Reset() {
	inc.prevRes = nil
}

// Run performs a local trace on the snapshot (h, tbl), using the deltas to
// remark incrementally when possible and falling back to a full trace
// otherwise. The result is identical to a full Marker trace either way.
// The previous Run's Result and the maps inside it are reused and must no
// longer be read by the caller.
func (inc *Incremental) Run(h *heap.Heap, tbl *refs.Table, hd *heap.Delta, td *refs.Delta, threshold int, algo OutsetAlgorithm) *Result {
	inc.Runs++
	reason := inc.fallbackReason(h, hd, td, threshold, algo)
	if reason == "" {
		res := inc.remark(h, tbl, hd, td, threshold, algo)
		inc.Remarks++
		inc.prevRes, inc.algo = res, algo
		return res
	}
	inc.FullTraces++
	inc.full.Workers = inc.Workers
	res := inc.full.Run(h, tbl, threshold, algo)
	res.Stats.FallbackReason = reason
	inc.prevRes, inc.algo = res, algo
	return res
}

// fallbackReason decides whether the incremental remark is applicable;
// a non-empty reason means a full trace must run.
func (inc *Incremental) fallbackReason(h *heap.Heap, hd *heap.Delta, td *refs.Delta, threshold int, algo OutsetAlgorithm) string {
	switch {
	case inc.prevRes == nil || hd == nil || td == nil || hd.Full || td.Full:
		return "first-trace"
	case threshold != inc.prevRes.Threshold:
		return "threshold-changed"
	case algo != inc.algo:
		return "algorithm-changed"
	case len(inc.prevRes.Missing) > 0:
		// A missing outref means a protocol invariant already broke; the
		// remark's staleness argument assumes table/heap agreement.
		return "prev-missing"
	case hd.Invalidating() || td.Invalidating():
		return "invalidating-mutation"
	}
	ratio := inc.MaxDirtyRatio
	if ratio == 0 {
		ratio = DefaultMaxDirtyRatio
	}
	if dirty := hd.Size() + td.Size(); float64(dirty) > ratio*float64(h.Len()) {
		return "dirty-ratio"
	}
	return ""
}

// remark performs the improve-only relaxation from the deltas' seeds.
func (inc *Incremental) remark(h *heap.Heap, tbl *refs.Table, hd *heap.Delta, td *refs.Delta, threshold int, algo OutsetAlgorithm) *Result {
	start := time.Now()
	prev := inc.prevRes
	marked := prev.Marked
	outrefDist := prev.OutrefDist

	res := &Result{
		Threshold:  threshold,
		Marked:     marked,
		OutrefDist: outrefDist,
	}
	res.Stats.Incremental = true

	// touched becomes true when any change could have altered a suspected
	// inref's cone: a mark or outref-distance transition with the old or
	// new value beyond the (outref: threshold+1) suspicion boundary, a new
	// edge out of a suspected object, or a suspected-inref membership
	// change. Clean-to-clean transitions cannot appear in any cone — the
	// Section 5 pass never visits clean objects — so they leave the
	// memoized back information valid.
	touched := false

	var queue []ids.ObjID
	seeds := 0

	improve := func(obj ids.ObjID, d int) {
		if !h.Contains(obj) {
			return
		}
		cur, ok := marked.Get(obj)
		if ok && cur <= d {
			return
		}
		if (ok && cur > threshold) || d > threshold {
			touched = true
		}
		marked.Set(obj, d)
		queue = append(queue, obj)
	}
	relaxOut := func(r ids.Ref, d int) {
		cur, ok := outrefDist[r]
		if ok && cur <= d {
			return
		}
		if (ok && cur > threshold+1) || d > threshold+1 {
			touched = true
		}
		outrefDist[r] = d
		if !ok {
			if _, present := tbl.Outref(r); !present {
				res.Missing = append(res.Missing, r)
			}
		}
	}

	// Seed from the deltas.
	for _, obj := range hd.LocalRootsAdded {
		seeds++
		improve(obj, 0)
	}
	for _, r := range hd.RemoteRootsAdded {
		seeds++
		relaxOut(r, 1)
	}
	for _, obj := range td.InrefsImproved {
		seeds++
		in, ok := tbl.Inref(obj)
		if !ok || in.Garbage {
			continue // worsened entries force a full trace before this point
		}
		// Membership change in the suspected-inref set invalidates the
		// memoized outsets even when no cone content changed: the set of
		// entries itself differs.
		_, wasSuspected := prev.Back.Outsets[obj]
		if (in.Distance() > threshold) != wasSuspected {
			touched = true
		}
		improve(obj, in.Distance())
	}
	for _, obj := range hd.FieldsAdded {
		if m, ok := marked.Get(obj); ok {
			seeds++
			if m > threshold {
				touched = true
			}
			queue = append(queue, obj)
		}
	}
	res.Stats.DirtySeeds = seeds

	if inc.Workers > 1 && len(queue) > 0 {
		// Work-stealing relaxation over the shard-partitioned mark set;
		// outrefDist stays a stable base the workers only read, with
		// per-worker minima merged below it afterwards.
		inc.remarkParallel(h, tbl, res, queue, threshold, &touched)
	} else {
		// Improve-only relaxation: rescan each queued object at its
		// current mark. An object can be queued more than once as its mark
		// improves; scans use the latest value, so later pops are cheap
		// re-walks.
		site := h.Site()
		for len(queue) > 0 {
			obj := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			res.Stats.ObjectsTraced++
			m, _ := marked.Get(obj)
			o, ok := h.Get(obj)
			if !ok {
				continue
			}
			for i := 0; i < o.NumFields(); i++ {
				f := o.Field(i)
				if f.IsZero() {
					continue
				}
				if f.Site == site {
					improve(f.Obj, m)
				} else {
					relaxOut(f, refs.AddDist(m, 1))
				}
			}
		}
	}

	// Dead objects under monotone change can only be fresh allocations
	// nothing reached: every previously live object is still reachable
	// (nothing was removed), and the previous trace's dead were swept at
	// its commit.
	for _, obj := range hd.Allocated {
		if _, ok := marked.Get(obj); !ok && h.Contains(obj) {
			res.Dead = append(res.Dead, obj)
		}
	}

	res.Untraced, res.Stats.SuspectedOutrefs = classifyOutrefs(tbl, outrefDist, threshold)

	if !touched {
		res.Back = prev.Back
		res.Stats.OutsetsReused = true
		res.Stats.SuspectedInrefs = len(prev.Back.Outsets)
		inc.OutsetReuses++
	} else {
		env := &outsetEnv{h: h, tbl: tbl, mr: &markResult{marked: marked, outrefDist: outrefDist}, threshold: threshold}
		outsets, ost := computeOutsets(env, algo)
		res.Back = NewBackInfo(outsets)
		res.Stats.OutsetVisits = ost.objectsVisited
		res.Stats.OutsetRetraced = ost.objectsRetraced
		res.Stats.Unions = ost.unions
		res.Stats.MemoHits = ost.memoHits
		res.Stats.SuspectedInrefs = len(outsets)
	}

	sort.Slice(res.Missing, func(i, j int) bool { return res.Missing[i].Less(res.Missing[j]) })
	inc.SeedsRelaxed += int64(seeds)
	inc.ObjectsRemark += res.Stats.ObjectsTraced
	res.Stats.Duration = time.Since(start)
	return res
}

// remarkParallel drains the seed queue with the work-stealing engine. The
// mark set is shared, guarded by one mutex per shard; outref distances are
// accumulated as per-worker minima over the untouched base map and merged
// deterministically afterwards, so the relaxation reaches the same minimum
// fixpoint as the sequential drain.
//
// The touched flag may come out true here where the sequential drain would
// leave it false (a worker can observe an intermediate distance beyond the
// suspicion boundary that the sequential order never materializes), and
// vice versa for transient values that a different interleaving skips
// straight past. Both directions are sound: touched=false certifies that
// no suspected entity's state differs from the previous trace — reuse is
// exact — and touched=true merely recomputes outsets from the final marks,
// which produces identical content. Only Stats and pointer identity can
// differ, and equivalence comparisons are content-based.
func (inc *Incremental) remarkParallel(h *heap.Heap, tbl *refs.Table, res *Result, queue []ids.ObjID, threshold int, touched *bool) {
	marked := res.Marked
	outrefDist := res.OutrefDist
	locks := make([]sync.Mutex, marked.NumShards())
	var touchedA atomic.Bool
	site := h.Site()

	eng := newParEngine(inc.Workers, func(w *parWorker, obj ids.ObjID) {
		w.scanned++
		si := marked.ShardOf(obj)
		locks[si].Lock()
		m, ok := marked.Shard(si)[obj]
		locks[si].Unlock()
		if !ok {
			return
		}
		o, ok := h.Get(obj)
		if !ok {
			return
		}
		for i := 0; i < o.NumFields(); i++ {
			f := o.Field(i)
			if f.IsZero() {
				continue
			}
			if f.Site == site {
				if !h.Contains(f.Obj) {
					continue
				}
				sj := marked.ShardOf(f.Obj)
				locks[sj].Lock()
				cur, ok := marked.Shard(sj)[f.Obj]
				if ok && cur <= m {
					locks[sj].Unlock()
					continue
				}
				if (ok && cur > threshold) || m > threshold {
					touchedA.Store(true)
				}
				marked.Shard(sj)[f.Obj] = m
				locks[sj].Unlock()
				w.push(f.Obj)
				continue
			}
			nd := refs.AddDist(m, 1)
			cur, ok := outrefDist[f]
			if ov, inOv := w.outMin[f]; inOv && (!ok || ov < cur) {
				cur, ok = ov, true
			}
			if ok && cur <= nd {
				continue
			}
			if (ok && cur > threshold+1) || nd > threshold+1 {
				touchedA.Store(true)
			}
			w.outMin[f] = nd
		}
	})
	eng.seed(queue)
	eng.run()

	for _, w := range eng.workers {
		res.Stats.ObjectsTraced += w.scanned
		for r, d := range w.outMin {
			cur, ok := outrefDist[r]
			if ok && cur <= d {
				continue
			}
			outrefDist[r] = d
			if !ok {
				if _, present := tbl.Outref(r); !present {
					res.Missing = append(res.Missing, r)
				}
			}
		}
	}
	if touchedA.Load() {
		*touched = true
	}
	res.Stats.Workers = inc.Workers
	res.Stats.Steals = eng.steals.Load()
}
