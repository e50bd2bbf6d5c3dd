package experiments

import (
	"fmt"
	"time"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
	"backtrace/internal/tracer"
)

// ShardRow is one (shards, workers) cell of experiment C16: local-trace
// latency over a sharded heap with the work-stealing parallel marker,
// against the one-worker (inline) single-shard baseline.
type ShardRow struct {
	Shards     int
	Workers    int
	Objects    int
	NsPerTrace float64
	// Speedup is the same-shard-count sequential latency divided by this
	// row's latency (1.0 for the workers=1 rows by construction).
	Speedup float64
	// Equal records that the row's trace result is content-identical to
	// the sequential single-shard baseline — the bit-identical claim the
	// parallel tracer makes.
	Equal bool
}

// shardWorkload builds the C16 heap on the requested shard count: a wide
// 8-ary live tree (so the mark phase has parallelism to harvest), a
// garbage chain (so the dead sweep runs), one suspected inref deep in the
// tree (so the outset phase runs), and a few outrefs from scattered tree
// nodes (so distance propagation to remote references runs).
func shardWorkload(shards, objects, threshold int) (*heap.Heap, *refs.Table) {
	h := heap.NewSharded(1, shards)
	tbl := refs.NewTableSharded(1, 1<<20, shards)

	live := objects * 4 / 5
	objs := make([]ids.Ref, 0, live)
	objs = append(objs, h.AllocRoot())
	for len(objs) < live {
		o := h.Alloc()
		parent := objs[(len(objs)-1)/8]
		_ = h.AddField(parent.Obj, o)
		objs = append(objs, o)
	}
	var prev ids.Ref
	for i := live; i < objects; i++ {
		o := h.Alloc()
		if !prev.IsZero() {
			_ = h.AddField(prev.Obj, o)
		}
		prev = o
	}

	deep := objs[len(objs)/10]
	tbl.AddSource(deep.Obj, 2)
	tbl.SetSourceDistance(deep.Obj, 2, threshold+5)
	for i := 1; i <= 4; i++ {
		out := ids.Ref{Site: 2, Obj: ids.ObjID(i)}
		tbl.EnsureOutref(out)
		_ = h.AddField(objs[len(objs)*i/5].Obj, out)
	}
	return h, tbl
}

// ShardTrace measures experiment C16: local-trace latency as a function of
// heap/table shard count and mark-worker count, with every parallel result
// checked content-identical to the one-worker single-shard baseline.
func ShardTrace(objects, rounds int) ([]ShardRow, error) {
	const threshold = 3
	if rounds < 1 {
		rounds = 1
	}

	baseH, baseTbl := shardWorkload(1, objects, threshold)
	baseline := tracer.RunParallel(baseH, baseTbl, threshold, tracer.AlgoBottomUp, 1)

	var out []ShardRow
	for _, shards := range []int{1, 4, 8} {
		h, tbl := shardWorkload(shards, objects, threshold)
		var seqNs float64
		for _, workers := range []int{1, 2, 4, 8} {
			run := func() *tracer.Result {
				return tracer.RunParallel(h, tbl, threshold, tracer.AlgoBottomUp, workers)
			}
			res := run() // warmup + correctness probe
			start := time.Now()
			for i := 0; i < rounds; i++ {
				res = run()
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(rounds)
			if workers == 1 {
				seqNs = ns
			}
			out = append(out, ShardRow{
				Shards:     shards,
				Workers:    workers,
				Objects:    objects,
				NsPerTrace: ns,
				Speedup:    seqNs / ns,
				Equal:      tracer.EqualResults(res, baseline),
			})
		}
	}
	return out, nil
}

// ShardTable renders the C16 rows.
func ShardTable(rows []ShardRow) *Table {
	t := &Table{
		Title:  "C16: sharded heap + work-stealing parallel mark (trace latency)",
		Header: []string{"shards", "workers", "objects", "ns/trace", "speedup", "equal"},
		Caption: "speedup is relative to the sequential tracer on the same shard count; " +
			"equal checks the result is content-identical to the single-shard sequential baseline",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Workers),
			fmt.Sprintf("%d", r.Objects),
			fmt.Sprintf("%.0f", r.NsPerTrace),
			fmt.Sprintf("%.2f", r.Speedup),
			fmt.Sprintf("%v", r.Equal),
		})
	}
	return t
}

// CheckShard enforces the CI smoke gate for C16: every configuration must
// produce a result content-identical to the sequential baseline, and no
// parallel configuration may be pathologically slower than the sequential
// tracer on the same shard count (a generous 3x bound — shared CI runners
// make tighter latency assertions flaky; the ≥3x speedup claim itself is
// benchmarked on dedicated hardware, see BENCH_PR7.json).
func CheckShard(rows []ShardRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("check: no shard rows")
	}
	for _, r := range rows {
		if !r.Equal {
			return fmt.Errorf("check: shards=%d workers=%d result diverges from the sequential baseline",
				r.Shards, r.Workers)
		}
		if r.Workers > 1 && r.Speedup < 1.0/3 {
			return fmt.Errorf("check: shards=%d workers=%d is %.2fx the sequential latency (pathological slowdown)",
				r.Shards, r.Workers, 1/r.Speedup)
		}
	}
	return nil
}
