package heap

import (
	"math/rand"
	"reflect"
	"testing"

	"backtrace/internal/ids"
)

// sameTracerView fails the test unless snap presents exactly the
// tracer-visible state of live: object set, per-object fields (in order),
// persistent roots, and application roots.
func sameTracerView(t *testing.T, live, snap *Heap) {
	t.Helper()
	liveObjs, snapObjs := live.Objects(), snap.Objects()
	if len(liveObjs) != len(snapObjs) {
		t.Fatalf("object count: live %d snap %d", len(liveObjs), len(snapObjs))
	}
	for i, obj := range liveObjs {
		if snapObjs[i] != obj {
			t.Fatalf("object set diverges at %d: live %v snap %v", i, obj, snapObjs[i])
		}
		lo, _ := live.Get(obj)
		so, _ := snap.Get(obj)
		if lo.NumFields() != so.NumFields() {
			t.Fatalf("obj %v: field count live %d snap %d", obj, lo.NumFields(), so.NumFields())
		}
		for f := 0; f < lo.NumFields(); f++ {
			if lo.Field(f) != so.Field(f) {
				t.Fatalf("obj %v field %d: live %v snap %v", obj, f, lo.Field(f), so.Field(f))
			}
		}
	}
	lp, sp := live.PersistentRoots(), snap.PersistentRoots()
	if len(lp) != len(sp) {
		t.Fatalf("persistent roots: live %v snap %v", lp, sp)
	}
	for i := range lp {
		if lp[i] != sp[i] {
			t.Fatalf("persistent roots: live %v snap %v", lp, sp)
		}
	}
	la, sa := live.AppRoots(), snap.AppRoots()
	if len(la) != len(sa) {
		t.Fatalf("app roots: live %v snap %v", la, sa)
	}
	for i := range la {
		if la[i] != sa[i] {
			t.Fatalf("app roots: live %v snap %v", la, sa)
		}
	}
	if live.NextID() != snap.NextID() {
		t.Fatalf("next id: live %v snap %v", live.NextID(), snap.NextID())
	}
}

// TestTraceSnapshotEquivalence drives a randomized mutation sequence and
// checks after every round that the patched shadow snapshot is
// indistinguishable from the live heap it mirrors.
func TestTraceSnapshotEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := New(1)
		h.EnableDeltaTracking()

		var objs []ids.Ref
		for i := 0; i < 5; i++ {
			objs = append(objs, h.AllocRoot())
		}

		for round := 0; round < 12; round++ {
			for step := 0; step < 30; step++ {
				switch rng.Intn(8) {
				case 0:
					objs = append(objs, h.Alloc())
				case 1:
					src := objs[rng.Intn(len(objs))]
					dst := objs[rng.Intn(len(objs))]
					_ = h.AddField(src.Obj, dst)
				case 2:
					src := objs[rng.Intn(len(objs))]
					dst := objs[rng.Intn(len(objs))]
					_, _ = h.RemoveField(src.Obj, dst)
				case 3:
					// Remote reference into a field.
					src := objs[rng.Intn(len(objs))]
					remote := ids.Ref{Site: 2, Obj: ids.ObjID(rng.Intn(50) + 1)}
					_ = h.AddField(src.Obj, remote)
				case 4:
					r := objs[rng.Intn(len(objs))]
					if h.IsPersistentRoot(r.Obj) {
						h.UnmarkPersistentRoot(r.Obj)
					} else {
						_ = h.MarkPersistentRoot(r.Obj)
					}
				case 5:
					r := objs[rng.Intn(len(objs))]
					if rng.Intn(2) == 0 {
						h.AddAppRoot(r)
					} else {
						h.RemoveAppRoot(r)
					}
				case 6:
					remote := ids.Ref{Site: 3, Obj: ids.ObjID(rng.Intn(20) + 1)}
					if rng.Intn(2) == 0 {
						h.AddAppRoot(remote)
					} else {
						h.RemoveAppRoot(remote)
					}
				case 7:
					if len(objs) > 3 {
						i := rng.Intn(len(objs))
						h.Delete(objs[i].Obj)
						objs = append(objs[:i], objs[i+1:]...)
					}
				}
			}
			snap, d := h.TraceSnapshot()
			if round == 0 && !d.Full {
				t.Fatalf("seed %d: first delta not Full", seed)
			}
			if round > 0 && d.Full {
				t.Fatalf("seed %d round %d: unexpected Full delta", seed, round)
			}
			sameTracerView(t, h, snap)
		}
	}
}

// TestTraceSnapshotCancellingOps checks that operations undone before the
// snapshot produce no delta entries at all.
func TestTraceSnapshotCancellingOps(t *testing.T) {
	h := New(1)
	h.EnableDeltaTracking()
	a := h.AllocRoot()
	b := h.Alloc()
	if _, d := h.TraceSnapshot(); !d.Full {
		t.Fatal("first delta not Full")
	}

	// Edge added then removed again: no field delta.
	if err := h.AddField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RemoveField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	// Variable taken then dropped: no root delta.
	h.AddAppRoot(b)
	h.RemoveAppRoot(b)
	// Remote variable taken then dropped.
	remote := ids.Ref{Site: 9, Obj: 4}
	h.AddAppRoot(remote)
	h.RemoveAppRoot(remote)
	// Persistent root toggled back.
	if err := h.MarkPersistentRoot(b.Obj); err != nil {
		t.Fatal(err)
	}
	h.UnmarkPersistentRoot(b.Obj)

	if _, d := h.TraceSnapshot(); !d.Empty() {
		t.Fatalf("cancelling ops left a delta: %+v", d)
	}
}

// TestTraceSnapshotClassification checks each delta bucket on targeted
// mutations.
func TestTraceSnapshotClassification(t *testing.T) {
	h := New(1)
	h.EnableDeltaTracking()
	a := h.AllocRoot()
	h.TraceSnapshot()

	b := h.Alloc()
	if err := h.AddField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	remote := ids.Ref{Site: 2, Obj: 7}
	h.AddAppRoot(remote)
	h.AddAppRoot(b)
	_, d := h.TraceSnapshot()
	if len(d.Allocated) != 1 || d.Allocated[0] != b.Obj {
		t.Fatalf("Allocated = %v, want [%v]", d.Allocated, b.Obj)
	}
	if len(d.FieldsAdded) != 1 || d.FieldsAdded[0] != a.Obj {
		t.Fatalf("FieldsAdded = %v, want [%v]", d.FieldsAdded, a.Obj)
	}
	if len(d.RemoteRootsAdded) != 1 || d.RemoteRootsAdded[0] != remote {
		t.Fatalf("RemoteRootsAdded = %v, want [%v]", d.RemoteRootsAdded, remote)
	}
	if len(d.LocalRootsAdded) != 1 || d.LocalRootsAdded[0] != b.Obj {
		t.Fatalf("LocalRootsAdded = %v, want [%v]", d.LocalRootsAdded, b.Obj)
	}
	if d.Invalidating() {
		t.Fatalf("monotone delta reported Invalidating: %+v", d)
	}

	// Now the invalidating buckets.
	if _, err := h.RemoveField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	h.RemoveAppRoot(remote)
	h.RemoveAppRoot(b)
	c := h.Alloc()
	h.Delete(c.Obj)
	_, d = h.TraceSnapshot()
	if len(d.FieldsRemoved) != 1 || d.FieldsRemoved[0] != a.Obj {
		t.Fatalf("FieldsRemoved = %v, want [%v]", d.FieldsRemoved, a.Obj)
	}
	if len(d.RemoteRootsRemoved) != 1 || d.RemoteRootsRemoved[0] != remote {
		t.Fatalf("RemoteRootsRemoved = %v, want [%v]", d.RemoteRootsRemoved, remote)
	}
	if len(d.LocalRootsRemoved) != 1 || d.LocalRootsRemoved[0] != b.Obj {
		t.Fatalf("LocalRootsRemoved = %v, want [%v]", d.LocalRootsRemoved, b.Obj)
	}
	// c was allocated and deleted between snapshots: no trace of it.
	if len(d.Allocated) != 0 || len(d.Deleted) != 0 {
		t.Fatalf("alloc+delete between snapshots leaked: %+v", d)
	}
	if !d.Invalidating() {
		t.Fatalf("removals not Invalidating: %+v", d)
	}
}

// TestTraceSnapshotReset checks that ResetTraceSnapshot forces the next
// snapshot to be Full again.
func TestTraceSnapshotReset(t *testing.T) {
	h := New(1)
	h.EnableDeltaTracking()
	h.AllocRoot()
	h.TraceSnapshot()
	h.Alloc()
	h.ResetTraceSnapshot()
	snap, d := h.TraceSnapshot()
	if !d.Full {
		t.Fatal("delta after reset not Full")
	}
	sameTracerView(t, h, snap)
}

// heapView is a deep copy of everything a trace reads from a heap, taken
// through the public accessors, plus the *Object pointers themselves so a
// later check can tell an in-place write from a replaced object.
type heapView struct {
	objs   map[ids.ObjID]*Object
	fields map[ids.ObjID][]ids.Ref
	roots  []ids.ObjID
	app    []ids.Ref
}

func viewOf(h *Heap) heapView {
	v := heapView{
		objs:   make(map[ids.ObjID]*Object),
		fields: make(map[ids.ObjID][]ids.Ref),
		roots:  h.PersistentRoots(),
		app:    h.AppRoots(),
	}
	for _, obj := range h.Objects() {
		o, _ := h.Get(obj)
		v.objs[obj] = o
		v.fields[obj] = o.Fields()
	}
	return v
}

// sameView fails unless h still presents view v and every Object recorded
// in v still holds the fields it held then.
func sameView(t *testing.T, label string, h *Heap, v heapView) {
	t.Helper()
	if !reflect.DeepEqual(viewOf(h).fields, v.fields) {
		t.Fatalf("%s: snapshot objects or fields changed: %v, want %v", label, viewOf(h).fields, v.fields)
	}
	for obj, o := range v.objs {
		if !reflect.DeepEqual(o.Fields(), v.fields[obj]) {
			t.Fatalf("%s: snapshot object %v mutated in place: %v, want %v", label, obj, o.Fields(), v.fields[obj])
		}
	}
	if !reflect.DeepEqual(h.PersistentRoots(), v.roots) || !reflect.DeepEqual(h.AppRoots(), v.app) {
		t.Fatalf("%s: snapshot roots changed", label)
	}
}

// TestSnapshotIsolatedFromLiveMutation is the copy-on-write property: a
// snapshot shares its immutable Objects with the live heap, so every
// mutator on the live heap after Snapshot or TraceSnapshot must leave the
// snapshot's objects and fields exactly as they were.
func TestSnapshotIsolatedFromLiveMutation(t *testing.T) {
	remote := ids.Ref{Site: 9, Obj: 1}
	mutators := []struct {
		name string
		op   func(t *testing.T, h *Heap, a, b, c ids.Ref)
	}{
		{"AddField", func(t *testing.T, h *Heap, a, b, _ ids.Ref) {
			if err := h.AddField(a.Obj, b); err != nil {
				t.Fatal(err)
			}
		}},
		{"RemoveField", func(t *testing.T, h *Heap, a, b, _ ids.Ref) {
			if ok, err := h.RemoveField(a.Obj, b); err != nil || !ok {
				t.Fatalf("remove field: %v %v", ok, err)
			}
		}},
		{"ClearFields", func(t *testing.T, h *Heap, a, _, _ ids.Ref) {
			if err := h.ClearFields(a.Obj); err != nil {
				t.Fatal(err)
			}
		}},
		{"Delete", func(t *testing.T, h *Heap, _, b, _ ids.Ref) { h.Delete(b.Obj) }},
		{"Install", func(t *testing.T, h *Heap, _, _, c ids.Ref) {
			// Reinstall a deleted id with different fields: the snapshot
			// must keep the old object under that id.
			h.Delete(c.Obj)
			if err := h.Install(c.Obj, []ids.Ref{remote, remote}, 8, true); err != nil {
				t.Fatal(err)
			}
		}},
		{"Adopt", func(t *testing.T, h *Heap, a, _, _ ids.Ref) { h.Adopt([]ids.Ref{a, remote}, 8) }},
	}
	snapshots := []struct {
		name string
		take func(h *Heap) *Heap
	}{
		{"Snapshot", func(h *Heap) *Heap { return h.Snapshot() }},
		{"TraceSnapshot", func(h *Heap) *Heap { snap, _ := h.TraceSnapshot(); return snap }},
		{"TraceSnapshot-patched", func(h *Heap) *Heap {
			h.TraceSnapshot()
			_ = h.AddField(h.Objects()[0], remote)
			snap, _ := h.TraceSnapshot()
			return snap
		}},
	}
	for _, sn := range snapshots {
		for _, m := range mutators {
			h := NewSharded(1, 3)
			a := h.AllocRoot()
			b, c := h.Alloc(), h.Alloc()
			for _, f := range []ids.Ref{b, c, remote, b} {
				if err := h.AddField(a.Obj, f); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.AddField(c.Obj, a); err != nil {
				t.Fatal(err)
			}
			h.AddAppRoot(c)
			snap := sn.take(h)
			v := viewOf(snap)
			m.op(t, h, a, b, c)
			sameView(t, sn.name+"/"+m.name, snap, v)
		}
	}
}
