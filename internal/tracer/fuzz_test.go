package tracer

import (
	"reflect"
	"testing"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// FuzzOutsetAlgorithmsAgree decodes a byte string into a single-site graph
// (objects, edges, remote references, inref distances, a threshold) and
// checks that the Section 5.1 and 5.2 algorithms produce identical back
// information and identical mark phases. `go test` runs the seed corpus;
// `go test -fuzz=FuzzOutsetAlgorithmsAgree` explores further.
func FuzzOutsetAlgorithmsAgree(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte("cycles cycles cycles"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		h, tbl, threshold := fuzzSite(t, data, 1)
		ind := trace(t, h, tbl, threshold, AlgoIndependent)
		bu := trace(t, h, tbl, threshold, AlgoBottomUp)

		if !reflect.DeepEqual(ind.Marked, bu.Marked) {
			t.Fatalf("mark phases differ")
		}
		if !reflect.DeepEqual(ind.OutrefDist, bu.OutrefDist) {
			t.Fatalf("outref distances differ")
		}
		if len(ind.Back.Outsets) != len(bu.Back.Outsets) {
			t.Fatalf("outset counts differ: %d vs %d", len(ind.Back.Outsets), len(bu.Back.Outsets))
		}
		for in, want := range ind.Back.Outsets {
			got := bu.Back.Outsets[in]
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("outset of %v differs: %v vs %v", in, want, got)
			}
		}
		// The space identity must hold for both.
		if ind.Back.Entries() != bu.Back.Entries() {
			t.Fatalf("entry counts differ")
		}
		// The dense path must match the map oracle at every worker and
		// shard count.
		for _, shards := range []int{1, 4} {
			hs, ts, _ := fuzzSite(t, data, shards)
			for _, algo := range []OutsetAlgorithm{AlgoIndependent, AlgoBottomUp} {
				want := runOracle(h, tbl, threshold, algo)
				for _, workers := range []int{1, 2, 8} {
					if got := RunParallel(hs, ts, threshold, algo, workers); !EqualResults(got, want) {
						t.Fatalf("shards %d workers %d algo %v: dense result diverges from the oracle", shards, workers, algo)
					}
				}
			}
		}
	})
}

// fuzzSite decodes a fuzz input into a single-site graph on a heap and
// table with the given shard count, returning them with the decoded
// threshold. The same input decodes to the same graph at every shard
// count.
func fuzzSite(t *testing.T, data []byte, shards int) (*heap.Heap, *refs.Table, int) {
	const n = 12 // objects
	h := heap.NewSharded(1, shards)
	tbl := refs.NewTableSharded(1, 1<<20, shards)
	objs := make([]ids.Ref, n)
	for i := range objs {
		objs[i] = h.Alloc()
	}
	pos := 0
	next := func() byte {
		b := data[pos%len(data)]
		pos++
		return b
	}
	threshold := int(next() % 5)
	if next()%2 == 0 {
		if err := h.MarkPersistentRoot(objs[0].Obj); err != nil {
			t.Fatal(err)
		}
	}
	edges := int(next()%32) + 1
	for i := 0; i < edges; i++ {
		from := objs[int(next())%n]
		switch next() % 4 {
		case 0: // remote reference
			target := ids.MakeRef(ids.SiteID(2+next()%3), ids.ObjID(1+next()%8))
			if err := h.AddField(from.Obj, target); err != nil {
				t.Fatal(err)
			}
			tbl.EnsureOutref(target)
			if o, ok := tbl.Outref(target); ok {
				o.Barrier = false
			}
		default: // local reference
			if err := h.AddField(from.Obj, objs[int(next())%n]); err != nil {
				t.Fatal(err)
			}
		}
	}
	inrefs := int(next() % 8)
	for i := 0; i < inrefs; i++ {
		obj := objs[int(next())%n]
		src := ids.SiteID(2 + next()%3)
		tbl.AddSource(obj.Obj, src)
		tbl.SetSourceDistance(obj.Obj, src, int(next()%12))
	}
	return h, tbl, threshold
}
