package tracer

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// This file implements the full local trace: the distance-ordered forward
// mark of Sections 2–3 on a dense mark table, followed by the Section 5
// outset computation. It is the only full-trace implementation; the
// incremental tracer falls back to it.
//
// The forward mark processes roots in ascending distance order with single
// marking, so an object's mark is the MINIMUM root distance over the roots
// that reach it, and an outref's distance is one plus the minimum final
// mark over the objects holding it (folded with the distance-1
// application-root seeds). Both are minimum fixpoints of improve-only
// relaxation, and a fixpoint does not care about evaluation order:
//
//   - With one worker the mark runs inline on the calling goroutine and
//     drains each root before the next, in ascending distance, so every
//     reached object is marked once at its final distance and scanned
//     exactly once.
//   - With several workers every root is seeded at once and the
//     work-stealing engine (parallel.go) relaxes with a compare-and-swap
//     minimum per object, re-queueing an object whenever its mark
//     improves, so every object is eventually scanned at its final mark.
//
// Either way the result is the same: marks are partitioned by the heap's
// shard hash and every list is sorted, so a result compares equal to the
// map-based oracle kept in the tests. Scheduling-dependent quantities (scan
// counts, steals) live only in Stats, which equivalence ignores.
//
// The mark table is a []uint64 indexed by object id (the heap's allocation
// high-water mark bounds it) and kept by the Marker across traces. Each
// trace gets a fresh epoch and stores base+distance+1, where base is the
// epoch shifted into the high 32 bits; any entry at or below base is from
// an earlier trace and reads as unmarked, so no trace clears or
// reallocates the table. Distances saturate at refs.DistInfinity (2^31−1),
// so distance+1 fits the low 32 bits. Marks are set without checking heap
// membership — marking a deleted or absent id is harmless, because scans
// look the object up (and skip it) and the result is read off the heap
// shards, never the dense table, so these phantom marks cannot leak.

// Marker runs full local traces and keeps its dense mark table between
// them, so a site tracing every round allocates no O(heap) table per trace.
// The zero value is ready to use. A Marker is not safe for concurrent use;
// the owning site's trace mutex serializes its traces.
type Marker struct {
	// Workers is the number of mark workers. One or less runs the whole
	// trace inline on the calling goroutine, spawning no goroutines;
	// above one, the mark runs on a work-stealing pool and the per-shard
	// result pass on one goroutine per shard. The result is identical.
	Workers int

	marks []uint64
	epoch uint64
}

// RunParallel performs a full local trace with the given number of mark
// workers on a fresh Marker. It does not modify the heap or tables, but
// requires that nothing else mutates them while it executes (sites trace
// snapshots).
func RunParallel(h *heap.Heap, tbl *refs.Table, threshold int, algo OutsetAlgorithm, workers int) *Result {
	m := Marker{Workers: workers}
	return m.Run(h, tbl, threshold, algo)
}

// Run performs a full local trace of the heap at the given suspicion
// threshold: the forward mark followed by the Section 5 computation of
// back information with the selected algorithm. Like RunParallel it reads
// the heap and tables without modifying them, so it may run on a Snapshot
// of both while the live site state keeps changing — the off-lock local
// trace enabled by the Section 6.2 double buffering.
func (m *Marker) Run(h *heap.Heap, tbl *refs.Table, threshold int, algo OutsetAlgorithm) *Result {
	start := time.Now()
	workers := max(m.Workers, 1)
	mr, dead, steals := m.mark(h, tbl, workers)
	outsets, ost := computeOutsets(&outsetEnv{h: h, tbl: tbl, mr: mr, threshold: threshold}, algo)
	res := &Result{
		Threshold:  threshold,
		Marked:     mr.marked,
		Dead:       dead,
		OutrefDist: mr.outrefDist,
		Missing:    mr.missingOutrefs,
		Back:       NewBackInfo(outsets),
		Stats: Stats{
			ObjectsTraced:   mr.objectsTraced,
			OutsetVisits:    ost.objectsVisited,
			OutsetRetraced:  ost.objectsRetraced,
			Unions:          ost.unions,
			MemoHits:        ost.memoHits,
			SuspectedInrefs: len(outsets),
			Workers:         workers,
			Steals:          steals,
		},
	}
	res.Untraced, res.Stats.SuspectedOutrefs = classifyOutrefs(tbl, mr.outrefDist, threshold)
	res.Stats.Duration = time.Since(start)
	return res
}

// mark runs the forward mark and returns its result, the dead objects in
// ascending order, and the steal count.
func (m *Marker) mark(h *heap.Heap, tbl *refs.Table, workers int) (*markResult, []ids.ObjID, int64) {
	d := m.table(h, workers > 1)
	roots, outrefDist := markRoots(h, tbl)

	var scanned, steals int64
	if workers == 1 {
		var stack []ids.ObjID
		push := func(obj ids.ObjID) { stack = append(stack, obj) }
		for _, rt := range roots {
			if !d.lower(rt.obj, d.encode(rt.dist)) {
				continue // already marked by a root at least as close
			}
			stack = append(stack[:0], rt.obj)
			for len(stack) > 0 {
				obj := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if d.scan(obj, outrefDist, push) {
					scanned++
				}
			}
		}
	} else {
		// Duplicate seeds of one object are fine: rescans are idempotent.
		var seeds []ids.ObjID
		for _, rt := range roots {
			if d.lower(rt.obj, d.encode(rt.dist)) {
				seeds = append(seeds, rt.obj)
			}
		}
		eng := newParEngine(workers, func(w *parWorker, obj ids.ObjID) {
			if d.scan(obj, w.outMin, w.push) {
				w.scanned++
			}
		})
		eng.seed(seeds)
		eng.run()
		for _, w := range eng.workers {
			scanned += w.scanned
			for r, dist := range w.outMin {
				foldMin(outrefDist, r, dist)
			}
		}
		steals = eng.steals.Load()
	}

	res := &markResult{outrefDist: outrefDist, objectsTraced: scanned}
	for r := range outrefDist {
		if _, ok := tbl.Outref(r); !ok {
			res.missingOutrefs = append(res.missingOutrefs, r)
		}
	}
	sort.Slice(res.missingOutrefs, func(i, j int) bool {
		return res.missingOutrefs[i].Less(res.missingOutrefs[j])
	})
	var dead []ids.ObjID
	res.marked, dead = d.collect(workers > 1)
	return res, dead, steals
}

// markRoots returns the forward mark's local roots in ascending distance
// (ties by object id) — persistent and application roots at 0, inrefs not
// flagged garbage at their own distance — and the outref distances seeded
// by application roots holding remote references: such a variable is a
// root one inter-site hop from its target (Section 6.3).
func markRoots(h *heap.Heap, tbl *refs.Table) ([]root, map[ids.Ref]int) {
	var roots []root
	outrefDist := make(map[ids.Ref]int)
	for _, obj := range h.PersistentRoots() {
		roots = append(roots, root{obj: obj, dist: 0})
	}
	for _, r := range h.AppRoots() {
		if r.Site == h.Site() {
			roots = append(roots, root{obj: r.Obj, dist: 0})
		} else {
			outrefDist[r] = 1
		}
	}
	for _, in := range tbl.Inrefs() {
		if in.Garbage {
			// Flagged by a completed back trace: no longer a root, so the
			// local trace collects the cycle (Section 4.5).
			continue
		}
		roots = append(roots, root{obj: in.Obj, dist: in.Distance()})
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].dist != roots[j].dist {
			return roots[i].dist < roots[j].dist
		}
		return roots[i].obj < roots[j].obj
	})
	return roots, outrefDist
}

// foldMin lowers m[r] to d, inserting it if absent.
func foldMin(m map[ids.Ref]int, r ids.Ref, d int) {
	if cur, ok := m[r]; !ok || d < cur {
		m[r] = d
	}
}

// table starts a trace on the Marker's mark table: it grows the table to
// cover the heap's id range and advances the epoch, which unmarks every
// entry at once.
func (m *Marker) table(h *heap.Heap, shared bool) *denseMark {
	if n := int(h.NextID()) + 1; n > len(m.marks) {
		m.marks = slices.Grow(m.marks, n-len(m.marks))[:n]
	}
	m.epoch++
	if m.epoch >= 1<<32 {
		clear(m.marks)
		m.epoch = 1
	}
	return &denseMark{h: h, site: h.Site(), marks: m.marks, base: m.epoch << 32, shared: shared}
}

// denseMark is one trace's view of the mark table.
type denseMark struct {
	h     *heap.Heap
	site  ids.SiteID
	marks []uint64
	// base is the epoch in the high 32 bits; an entry marks its object at
	// distance entry-base-1 if it exceeds base, and is unmarked otherwise.
	base uint64
	// shared is set when several workers relax concurrently: marks are
	// then read atomically and lowered by compare-and-swap.
	shared bool
}

func (d *denseMark) encode(dist int) uint64 { return d.base + uint64(dist) + 1 }

func (d *denseMark) decode(enc uint64) int { return int(enc - d.base - 1) }

// lower lowers obj's mark to enc if that improves it (or obj is unmarked),
// reporting whether it did — the caller must then (re)scan obj.
func (d *denseMark) lower(obj ids.ObjID, enc uint64) bool {
	if uint64(obj) >= uint64(len(d.marks)) {
		return false // beyond the high-water mark: not a heap object
	}
	p := &d.marks[obj]
	if !d.shared {
		if old := *p; old > d.base && old <= enc {
			return false
		}
		*p = enc
		return true
	}
	for {
		old := atomic.LoadUint64(p)
		if old > d.base && old <= enc {
			return false
		}
		if atomic.CompareAndSwapUint64(p, old, enc) {
			return true
		}
	}
}

// scan relaxes one object's fields at its current mark: local targets are
// lowered (push queues each improved one) and remote targets fold one plus
// the mark into outMin. It reports false, scanning nothing, for a phantom
// mark — an id not in the heap.
func (d *denseMark) scan(obj ids.ObjID, outMin map[ids.Ref]int, push func(ids.ObjID)) bool {
	o, ok := d.h.Lookup(obj)
	if !ok {
		return false
	}
	var enc uint64
	if d.shared {
		enc = atomic.LoadUint64(&d.marks[obj])
	} else {
		enc = d.marks[obj]
	}
	outDist := refs.AddDist(d.decode(enc), 1)
	for i := 0; i < o.NumFields(); i++ {
		f := o.Field(i)
		switch {
		case f.IsZero():
		case f.Site == d.site:
			if d.lower(f.Obj, enc) {
				push(f.Obj)
			}
		default:
			foldMin(outMin, f, outDist)
		}
	}
	return true
}

// collect reads the result off the heap in one pass per shard: each pass
// fills its shard of the MarkSet and lists the shard's unmarked objects,
// on one goroutine per shard when parallel is set. Only heap objects are
// consulted, which filters phantom marks. The dead objects come back in
// ascending order.
func (d *denseMark) collect(parallel bool) (*MarkSet, []ids.ObjID) {
	n := d.h.NumShards()
	ms := &MarkSet{shards: make([]map[ids.ObjID]int, n)}
	parts := make([][]ids.ObjID, n)
	pass := func(i int) {
		// Pre-size to the shard's population: marks are the common case.
		marked := make(map[ids.ObjID]int, d.h.ShardLen(i))
		d.h.EachObjectInShard(i, func(id ids.ObjID, _ *heap.Object) {
			if enc := d.marks[id]; enc > d.base {
				marked[id] = d.decode(enc)
			} else {
				parts[i] = append(parts[i], id)
			}
		})
		ms.shards[i] = marked
	}
	if parallel && n > 1 {
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pass(i)
			}()
		}
		wg.Wait()
	} else {
		for i := range n {
			pass(i)
		}
	}
	dead := slices.Concat(parts...)
	slices.Sort(dead)
	return ms, dead
}
