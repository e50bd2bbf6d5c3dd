package tracer

import (
	"sort"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// This file keeps the original map-based sequential tracer as the test
// oracle for the dense mark (dense.go): it is the paper's Sections 2–3
// forward mark written as directly as possible, with none of the dense
// path's encoding, epoch or work-stealing machinery, so EqualResults
// against it checks the production path against the algorithm itself.

// runOracle performs a local trace with the map-based oracle: the
// distance-ordered forward mark followed by the Section 5 computation of
// back information with the selected algorithm.
func runOracle(h *heap.Heap, tbl *refs.Table, threshold int, algo OutsetAlgorithm) *Result {
	mr := forwardMark(h, tbl)
	outsets, ost := computeOutsets(&outsetEnv{h: h, tbl: tbl, mr: mr, threshold: threshold}, algo)
	res := &Result{
		Threshold:  threshold,
		Marked:     mr.marked,
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
			Workers:         1,
		},
	}
	for _, obj := range h.Objects() {
		if _, ok := mr.marked.Get(obj); !ok {
			res.Dead = append(res.Dead, obj)
		}
	}
	res.Untraced, res.Stats.SuspectedOutrefs = classifyOutrefs(tbl, mr.outrefDist, threshold)
	sort.Slice(res.Missing, func(i, j int) bool { return res.Missing[i].Less(res.Missing[j]) })
	return res
}

// forwardMark performs the distance-ordered local trace of Sections 2–3:
//
//   - roots are the persistent roots and application roots (distance 0,
//     Section 6.3) and every inref not flagged garbage (its own distance);
//   - roots are traced in increasing distance order, each object is scanned
//     exactly once, and when the trace first reaches an outref its distance
//     becomes one plus the distance of the root being traced.
//
// Remote references held directly in application-root variables mark the
// corresponding outrefs at distance 1.
func forwardMark(h *heap.Heap, tbl *refs.Table) *markResult {
	res := &markResult{marked: NewMarkSet(h.NumShards()), outrefDist: make(map[ids.Ref]int)}
	var roots []root
	for _, obj := range h.PersistentRoots() {
		roots = append(roots, root{obj: obj, dist: 0})
	}
	for _, r := range h.AppRoots() {
		if r.Site == h.Site() {
			roots = append(roots, root{obj: r.Obj, dist: 0})
		} else if _, ok := res.outrefDist[r]; !ok {
			res.outrefDist[r] = 1
			if _, ok := tbl.Outref(r); !ok {
				res.missingOutrefs = append(res.missingOutrefs, r)
			}
		}
	}
	for _, in := range tbl.Inrefs() {
		if in.Garbage {
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

	var stack []ids.ObjID
	for _, rt := range roots {
		if !h.Contains(rt.obj) {
			continue
		}
		if _, ok := res.marked.Get(rt.obj); ok {
			continue
		}
		res.marked.Set(rt.obj, rt.dist)
		stack = append(stack[:0], rt.obj)
		for len(stack) > 0 {
			obj := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			res.objectsTraced++
			o, ok := h.Get(obj)
			if !ok {
				continue
			}
			for i := 0; i < o.NumFields(); i++ {
				f := o.Field(i)
				if f.IsZero() {
					continue
				}
				if f.Site == h.Site() {
					if !h.Contains(f.Obj) {
						continue
					}
					if _, seen := res.marked.Get(f.Obj); !seen {
						res.marked.Set(f.Obj, rt.dist)
						stack = append(stack, f.Obj)
					}
					continue
				}
				if _, seen := res.outrefDist[f]; !seen {
					res.outrefDist[f] = refs.AddDist(rt.dist, 1)
					if _, ok := tbl.Outref(f); !ok {
						res.missingOutrefs = append(res.missingOutrefs, f)
					}
				}
			}
		}
	}
	return res
}
