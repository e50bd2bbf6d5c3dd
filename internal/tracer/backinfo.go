// Package tracer implements a site's local garbage collection: the
// distance-ordered forward trace (Sections 2 and 3 of the paper) and the
// computation of back information — the outsets of suspected inrefs and,
// equivalently, the insets of suspected outrefs (Section 5).
//
// The tracer is a pure computation: a full trace (Marker.Run, dense.go) or
// an incremental one (Incremental.Run) reads the heap and ioref tables and
// produces a Result; the owning Site decides when to apply it (the paper's
// Section 6.2 double-buffering of back information falls out of this
// split — the Site keeps using the old BackInfo until it commits the new
// one).
package tracer

import (
	"sort"

	"backtrace/internal/ids"
)

// BackInfo is the reachability information between suspected inrefs and
// suspected outrefs computed by a local trace (Section 5): Outsets maps a
// suspected inref (by local object id) to the suspected outrefs locally
// reachable from it; Insets is the inverse view, mapping a suspected outref
// to the suspected inrefs it is locally reachable from.
//
// "Outsets and insets are simply two different representations of
// reachability information from inrefs to outrefs" — both are materialized
// because the transfer barrier consumes outsets (clean all outrefs in
// i.outset) while back traces consume insets (local steps).
//
// All slices are sorted and deduplicated; BackInfo is immutable once built.
type BackInfo struct {
	Outsets map[ids.ObjID][]ids.Ref
	Insets  map[ids.Ref][]ids.ObjID
}

// NewBackInfo builds a BackInfo from an outset map, deriving the inset view.
// The input slices must already be sorted canonical sets (the interner
// guarantees this); they are aliased, not copied.
func NewBackInfo(outsets map[ids.ObjID][]ids.Ref) *BackInfo {
	bi := &BackInfo{
		Outsets: outsets,
		Insets:  make(map[ids.Ref][]ids.ObjID),
	}
	inrefs := make([]ids.ObjID, 0, len(outsets))
	for in := range outsets {
		inrefs = append(inrefs, in)
	}
	sort.Slice(inrefs, func(i, j int) bool { return inrefs[i] < inrefs[j] })
	for _, in := range inrefs {
		for _, o := range outsets[in] {
			bi.Insets[o] = append(bi.Insets[o], in)
		}
	}
	return bi
}

// EmptyBackInfo returns a BackInfo with no entries (a site's state before
// its first local trace).
func EmptyBackInfo() *BackInfo {
	return &BackInfo{
		Outsets: make(map[ids.ObjID][]ids.Ref),
		Insets:  make(map[ids.Ref][]ids.ObjID),
	}
}

// Outset returns the suspected outrefs locally reachable from the given
// suspected inref (nil if the inref has no entry).
func (bi *BackInfo) Outset(inref ids.ObjID) []ids.Ref {
	return bi.Outsets[inref]
}

// Inset returns the suspected inrefs the given suspected outref is locally
// reachable from (nil if the outref has no entry).
func (bi *BackInfo) Inset(outref ids.Ref) []ids.ObjID {
	return bi.Insets[outref]
}

// Entries returns the total number of (inref, outref) reachability pairs —
// the quantity bounded by O(ni·no) in the paper's space analysis.
func (bi *BackInfo) Entries() int {
	n := 0
	for _, s := range bi.Outsets {
		n += len(s)
	}
	return n
}

// --- canonical outset interning (Section 5.2) ---------------------------
//
// "The outset table maps a suspect to an outset id and the outset itself is
// stored separately in a canonical form. Thus, suspected objects that have
// the same outset share storage. ... the results of uniting outsets are
// memoized."

// outsetID indexes an interned canonical outset; 0 is the empty outset.
type outsetID int32

// emptyOutset is the id of the canonical empty outset.
const emptyOutset outsetID = 0

// interner stores canonical (sorted, deduplicated) outsets, shares storage
// between equal outsets, and memoizes unions.
type interner struct {
	sets  [][]ids.Ref         // id -> canonical refs; sets[0] is empty
	byKey map[string]outsetID // canonical key -> id
	memo  map[[2]outsetID]outsetID
	// singles memoizes addRef: (set, ref) -> result. Keyed via a small
	// struct to avoid building canonical keys on the hot path.
	singles map[singleKey]outsetID

	unions   int64 // total union/addRef operations requested
	memoHits int64 // operations answered from a memo table
}

type singleKey struct {
	set outsetID
	ref ids.Ref
}

func newInterner() *interner {
	it := &interner{
		byKey:   make(map[string]outsetID),
		memo:    make(map[[2]outsetID]outsetID),
		singles: make(map[singleKey]outsetID),
	}
	it.sets = append(it.sets, nil) // id 0: empty outset
	it.byKey[""] = emptyOutset
	return it
}

// key builds the canonical map key for a sorted ref slice.
func outsetKey(refs []ids.Ref) string {
	buf := make([]byte, 0, len(refs)*12)
	for _, r := range refs {
		buf = append(buf,
			byte(r.Site>>24), byte(r.Site>>16), byte(r.Site>>8), byte(r.Site),
			byte(r.Obj>>56), byte(r.Obj>>48), byte(r.Obj>>40), byte(r.Obj>>32),
			byte(r.Obj>>24), byte(r.Obj>>16), byte(r.Obj>>8), byte(r.Obj))
	}
	return string(buf)
}

// intern returns the id of the canonical outset equal to refs, which must
// be sorted and deduplicated. The slice is stored (not copied) when new.
func (it *interner) intern(refs []ids.Ref) outsetID {
	if len(refs) == 0 {
		return emptyOutset
	}
	k := outsetKey(refs)
	if id, ok := it.byKey[k]; ok {
		return id
	}
	id := outsetID(len(it.sets))
	it.sets = append(it.sets, refs)
	it.byKey[k] = id
	return id
}

// refs returns the canonical ref slice for an outset id. Callers must not
// modify it.
func (it *interner) refs(id outsetID) []ids.Ref {
	return it.sets[id]
}

// union returns the id of a ∪ b, memoized.
func (it *interner) union(a, b outsetID) outsetID {
	it.unions++
	if a == b || b == emptyOutset {
		it.memoHits++
		return a
	}
	if a == emptyOutset {
		it.memoHits++
		return b
	}
	k := [2]outsetID{a, b}
	if a > b {
		k = [2]outsetID{b, a}
	}
	if id, ok := it.memo[k]; ok {
		it.memoHits++
		return id
	}
	merged := mergeRefs(it.sets[a], it.sets[b])
	id := it.intern(merged)
	it.memo[k] = id
	return id
}

// addRef returns the id of set ∪ {r}, memoized.
func (it *interner) addRef(set outsetID, r ids.Ref) outsetID {
	it.unions++
	sk := singleKey{set: set, ref: r}
	if id, ok := it.singles[sk]; ok {
		it.memoHits++
		return id
	}
	base := it.sets[set]
	idx := sort.Search(len(base), func(i int) bool { return !base[i].Less(r) })
	var id outsetID
	if idx < len(base) && base[idx] == r {
		id = set
	} else {
		merged := make([]ids.Ref, 0, len(base)+1)
		merged = append(merged, base[:idx]...)
		merged = append(merged, r)
		merged = append(merged, base[idx:]...)
		id = it.intern(merged)
	}
	it.singles[sk] = id
	return id
}

// mergeRefs merges two sorted deduplicated ref slices into a new one.
func mergeRefs(a, b []ids.Ref) []ids.Ref {
	out := make([]ids.Ref, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch a[i].Compare(b[j]) {
		case -1:
			out = append(out, a[i])
			i++
		case +1:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
