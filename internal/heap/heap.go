// Package heap implements a site's local object store: objects with
// reference fields, persistent roots, and application roots (the mutator's
// local variables, Section 2 and Section 6.3 of the paper).
//
// The store is split into N shards keyed by object-identifier hash. Each
// shard owns its own lock, its own maps, its own write-barrier dirty set,
// and its own slice of the copy-on-write trace snapshot, so mutator
// operations touching distinct shards do not contend and trace snapshots
// patch shards concurrently.
//
// Objects are immutable once published in a shard map: field mutators
// install a fresh *Object with a new field slice instead of writing the old
// one. A snapshot therefore clones only the shard maps and shares every
// object pointer with the live heap.
//
// Single-key operations are safe for concurrent use; whole-heap operations
// (Snapshot, TraceSnapshot, Objects, audits) still rely on the owning Site
// to exclude concurrent mutators — the Site takes its write lock for those,
// and its read lock plus the per-shard locks for the short mutator critical
// sections the paper's model assumes.
package heap

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"backtrace/internal/ids"
)

// Object is one object in a site's store: an identifier, reference fields,
// and a nominal payload size in bytes (used only for accounting, e.g. the
// bytes moved by the migration baseline).
type Object struct {
	id     ids.ObjID
	fields []ids.Ref
	size   int
}

// ID returns the object's identifier within its owning site.
func (o *Object) ID() ids.ObjID { return o.id }

// Size returns the object's nominal payload size in bytes.
func (o *Object) Size() int { return o.size }

// Fields returns a copy of the object's reference fields. Objects are
// immutable, so this is safe against concurrent heap mutation; the copy
// only protects the object from the caller.
func (o *Object) Fields() []ids.Ref {
	out := make([]ids.Ref, len(o.fields))
	copy(out, o.fields)
	return out
}

// NumFields returns the number of reference fields.
func (o *Object) NumFields() int { return len(o.fields) }

// Field returns the i'th reference field.
func (o *Object) Field(i int) ids.Ref { return o.fields[i] }

// withFields returns a copy of o with the given field slice, which the new
// Object takes ownership of (copy-on-write: o itself is never modified).
func (o *Object) withFields(fields []ids.Ref) *Object {
	return &Object{id: o.id, fields: fields, size: o.size}
}

// DefaultObjectSize is the nominal payload size of objects allocated
// without an explicit size.
const DefaultObjectSize = 64

// shard is one hash partition of the store. The mutex guards every map in
// the shard; the dirty sets exist only while delta tracking is enabled.
type shard struct {
	mu      sync.RWMutex
	objects map[ids.ObjID]*Object

	persistentRoots map[ids.ObjID]struct{}
	// appRoots counts mutator variables holding each reference; the
	// reference may be local or remote. Local tracing treats these as
	// roots (Section 6.3), and remote entries keep the corresponding
	// outrefs live and clean. Sharded by the reference's object id.
	appRoots map[ids.Ref]int

	// --- incremental-trace write barrier (see TraceSnapshot) ---

	// dirtyObjs names objects whose existence or fields may differ from
	// the shadow shard (allocated, deleted, or field-mutated since the
	// last snapshot); dirtyPersist and dirtyAppRoots are the same for
	// root status.
	dirtyObjs     map[ids.ObjID]struct{}
	dirtyPersist  map[ids.ObjID]struct{}
	dirtyAppRoots map[ids.Ref]struct{}
}

func newShard() *shard {
	return &shard{
		objects:         make(map[ids.ObjID]*Object),
		persistentRoots: make(map[ids.ObjID]struct{}),
		appRoots:        make(map[ids.Ref]int),
	}
}

// Heap is one site's object store.
type Heap struct {
	site   ids.SiteID
	shards []*shard
	next   atomic.Uint64 // allocation high-water mark (ids.ObjID)

	// tracking, when true, makes every mutator operation record what it
	// touched in its shard's dirty set so TraceSnapshot can produce an
	// O(dirty) snapshot and Delta instead of an O(heap) snapshot. Off by
	// default: the bookkeeping is pure overhead for sites that run full
	// traces. Written only while whole-heap exclusion holds (construction
	// or the site write lock).
	tracking bool
	// snap is the shadow copy maintained by TraceSnapshot: a second Heap
	// (same shard count) that mirrors this one as of the last snapshot.
	// It has its own shard maps and shares the immutable Objects, so a
	// local trace may read it off-lock while mutators keep writing here.
	snap *Heap
}

// Delta describes how the heap changed between two TraceSnapshot calls, in
// the terms the incremental tracer consumes. Classification happens at
// snapshot time by diffing against the shadow copy, so operations that
// cancel out (an edge added and removed again, a variable taken and
// dropped) produce no entries at all.
//
// FieldsAdded lists objects that only gained fields — a monotone change the
// incremental remark handles by rescanning the object. FieldsRemoved lists
// objects that lost at least one field — an invalidating change that forces
// a full trace. Root transitions are split the same way; remote roots are
// the mutator variables holding references owned elsewhere (they seed
// outref distances rather than object marks).
type Delta struct {
	// Full marks the first snapshot (or one taken after tracking was
	// enabled mid-life): no previous state to diff against, so the caller
	// must run a full trace.
	Full bool

	FieldsAdded   []ids.ObjID
	FieldsRemoved []ids.ObjID
	Allocated     []ids.ObjID
	Deleted       []ids.ObjID

	LocalRootsAdded    []ids.ObjID
	LocalRootsRemoved  []ids.ObjID
	RemoteRootsAdded   []ids.Ref
	RemoteRootsRemoved []ids.Ref
}

// Empty reports whether the delta records no change at all.
func (d *Delta) Empty() bool {
	return !d.Full &&
		len(d.FieldsAdded) == 0 && len(d.FieldsRemoved) == 0 &&
		len(d.Allocated) == 0 && len(d.Deleted) == 0 &&
		len(d.LocalRootsAdded) == 0 && len(d.LocalRootsRemoved) == 0 &&
		len(d.RemoteRootsAdded) == 0 && len(d.RemoteRootsRemoved) == 0
}

// Invalidating reports whether the delta contains a change that can revoke
// reachability or raise a distance — the changes the monotone incremental
// remark cannot absorb exactly.
func (d *Delta) Invalidating() bool {
	return len(d.FieldsRemoved) > 0 ||
		len(d.LocalRootsRemoved) > 0 || len(d.RemoteRootsRemoved) > 0
}

// Size returns the number of changed entities, the quantity the dirty-ratio
// fallback knob compares against the heap size.
func (d *Delta) Size() int {
	return len(d.FieldsAdded) + len(d.FieldsRemoved) +
		len(d.Allocated) + len(d.Deleted) +
		len(d.LocalRootsAdded) + len(d.LocalRootsRemoved) +
		len(d.RemoteRootsAdded) + len(d.RemoteRootsRemoved)
}

// New creates an empty single-shard heap for the given site. Library tests
// and baselines use this; sites pass an explicit shard count via
// NewSharded.
func New(site ids.SiteID) *Heap { return NewSharded(site, 1) }

// NewSharded creates an empty heap with the given shard count (clamped to
// at least 1). The shard count is fixed for the heap's lifetime and is
// inherited by its snapshots, so mark tables derived from one heap lineage
// always partition identically.
func NewSharded(site ids.SiteID, shards int) *Heap {
	if shards < 1 {
		shards = 1
	}
	h := &Heap{site: site, shards: make([]*shard, shards)}
	for i := range h.shards {
		h.shards[i] = newShard()
	}
	return h
}

// NumShards returns the heap's shard count.
func (h *Heap) NumShards() int { return len(h.shards) }

// ShardOf returns the shard index owning an object id. References are
// sharded by their object id, so local objects and the application roots
// naming them land in the same shard.
func (h *Heap) ShardOf(obj ids.ObjID) int {
	return int(uint64(obj) % uint64(len(h.shards)))
}

func (h *Heap) shardFor(obj ids.ObjID) *shard { return h.shards[h.ShardOf(obj)] }

// EnableDeltaTracking turns on the write barrier that records dirty
// objects and roots for TraceSnapshot. Sites configured for incremental
// tracing call this once at construction; it requires whole-heap exclusion
// (no concurrent shard operations).
func (h *Heap) EnableDeltaTracking() {
	if h.tracking {
		return
	}
	h.tracking = true
	for _, sh := range h.shards {
		sh.dirtyObjs = make(map[ids.ObjID]struct{})
		sh.dirtyPersist = make(map[ids.ObjID]struct{})
		sh.dirtyAppRoots = make(map[ids.Ref]struct{})
	}
}

// The touch helpers run with the shard lock held.

func (h *Heap) touchObj(sh *shard, obj ids.ObjID) {
	if h.tracking {
		sh.dirtyObjs[obj] = struct{}{}
	}
}

func (h *Heap) touchPersist(sh *shard, obj ids.ObjID) {
	if h.tracking {
		sh.dirtyPersist[obj] = struct{}{}
	}
}

func (h *Heap) touchAppRoot(sh *shard, r ids.Ref) {
	if h.tracking {
		sh.dirtyAppRoots[r] = struct{}{}
	}
}

// Site returns the owning site's identifier.
func (h *Heap) Site() ids.SiteID { return h.site }

// Len returns the number of objects in the heap.
func (h *Heap) Len() int {
	n := 0
	for _, sh := range h.shards {
		sh.mu.RLock()
		n += len(sh.objects)
		sh.mu.RUnlock()
	}
	return n
}

// ShardLen returns the number of objects in one shard.
func (h *Heap) ShardLen(i int) int {
	sh := h.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.objects)
}

// Alloc creates a new object with no fields and DefaultObjectSize payload,
// returning its fully qualified reference.
func (h *Heap) Alloc() ids.Ref { return h.AllocSized(DefaultObjectSize) }

// AllocSized creates a new object with the given nominal payload size.
func (h *Heap) AllocSized(size int) ids.Ref {
	id := ids.ObjID(h.next.Add(1))
	o := &Object{id: id, size: size}
	sh := h.shardFor(id)
	sh.mu.Lock()
	sh.objects[id] = o
	h.touchObj(sh, id)
	sh.mu.Unlock()
	return ids.MakeRef(h.site, id)
}

// AllocRoot creates a new object and marks it a persistent root.
func (h *Heap) AllocRoot() ids.Ref {
	id := ids.ObjID(h.next.Add(1))
	o := &Object{id: id, size: DefaultObjectSize}
	sh := h.shardFor(id)
	sh.mu.Lock()
	sh.objects[id] = o
	sh.persistentRoots[id] = struct{}{}
	h.touchObj(sh, id)
	h.touchPersist(sh, id)
	sh.mu.Unlock()
	return ids.MakeRef(h.site, id)
}

// MarkPersistentRoot designates an existing local object as a persistent
// root (an entry point into the store, such as a name server or directory).
func (h *Heap) MarkPersistentRoot(obj ids.ObjID) error {
	sh := h.shardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.objects[obj]; !ok {
		return fmt.Errorf("heap %v: mark root: no object %v", h.site, obj)
	}
	sh.persistentRoots[obj] = struct{}{}
	h.touchPersist(sh, obj)
	return nil
}

// UnmarkPersistentRoot removes root status from a local object.
func (h *Heap) UnmarkPersistentRoot(obj ids.ObjID) {
	sh := h.shardFor(obj)
	sh.mu.Lock()
	delete(sh.persistentRoots, obj)
	h.touchPersist(sh, obj)
	sh.mu.Unlock()
}

// IsPersistentRoot reports whether a local object is a persistent root.
func (h *Heap) IsPersistentRoot(obj ids.ObjID) bool {
	sh := h.shardFor(obj)
	sh.mu.RLock()
	_, ok := sh.persistentRoots[obj]
	sh.mu.RUnlock()
	return ok
}

// PersistentRoots returns the local persistent roots in ascending order.
func (h *Heap) PersistentRoots() []ids.ObjID {
	var out []ids.ObjID
	for _, sh := range h.shards {
		sh.mu.RLock()
		for o := range sh.persistentRoots {
			out = append(out, o)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Get returns the object with the given identifier. The Object is
// immutable: later field mutations install a new Object and leave this one
// as it was.
func (h *Heap) Get(obj ids.ObjID) (*Object, bool) {
	sh := h.shardFor(obj)
	sh.mu.RLock()
	o, ok := sh.objects[obj]
	sh.mu.RUnlock()
	return o, ok
}

// Lookup is Get without the shard lock, for a heap that nothing mutates
// while the caller reads it — a trace snapshot during its trace. Any
// number of goroutines may Lookup concurrently.
func (h *Heap) Lookup(obj ids.ObjID) (*Object, bool) {
	o, ok := h.shardFor(obj).objects[obj]
	return o, ok
}

// FieldsOf returns a copy of an object's reference fields.
func (h *Heap) FieldsOf(obj ids.ObjID) ([]ids.Ref, bool) {
	o, ok := h.Get(obj)
	if !ok {
		return nil, false
	}
	return o.Fields(), true
}

// Contains reports whether the heap holds the object.
func (h *Heap) Contains(obj ids.ObjID) bool {
	sh := h.shardFor(obj)
	sh.mu.RLock()
	_, ok := sh.objects[obj]
	sh.mu.RUnlock()
	return ok
}

// Objects returns all object identifiers in ascending order.
func (h *Heap) Objects() []ids.ObjID {
	out := make([]ids.ObjID, 0, h.Len())
	for _, sh := range h.shards {
		sh.mu.RLock()
		for o := range sh.objects {
			out = append(out, o)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EachObjectInShard invokes fn for every object in one shard, in
// unspecified order, holding the shard read lock. The tracer uses it to
// partition heap scans without allocating id slices; fn must not mutate
// the heap.
func (h *Heap) EachObjectInShard(i int, fn func(ids.ObjID, *Object)) {
	sh := h.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for id, o := range sh.objects {
		fn(id, o)
	}
}

// AddField appends a reference field to a local object (reference
// creation: "copying a reference z into object y", Section 6.1).
func (h *Heap) AddField(obj ids.ObjID, target ids.Ref) error {
	sh := h.shardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o, ok := sh.objects[obj]
	if !ok {
		return fmt.Errorf("heap %v: add field: no object %v", h.site, obj)
	}
	fields := make([]ids.Ref, len(o.fields)+1)
	copy(fields, o.fields)
	fields[len(o.fields)] = target
	sh.objects[obj] = o.withFields(fields)
	h.touchObj(sh, obj)
	return nil
}

// RemoveField deletes the first field of obj equal to target (reference
// deletion). It reports whether a field was removed.
func (h *Heap) RemoveField(obj ids.ObjID, target ids.Ref) (bool, error) {
	sh := h.shardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o, ok := sh.objects[obj]
	if !ok {
		return false, fmt.Errorf("heap %v: remove field: no object %v", h.site, obj)
	}
	for i, f := range o.fields {
		if f == target {
			fields := make([]ids.Ref, 0, len(o.fields)-1)
			fields = append(append(fields, o.fields[:i]...), o.fields[i+1:]...)
			sh.objects[obj] = o.withFields(fields)
			h.touchObj(sh, obj)
			return true, nil
		}
	}
	return false, nil
}

// ClearFields removes every reference field of obj.
func (h *Heap) ClearFields(obj ids.ObjID) error {
	sh := h.shardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o, ok := sh.objects[obj]
	if !ok {
		return fmt.Errorf("heap %v: clear fields: no object %v", h.site, obj)
	}
	if len(o.fields) > 0 {
		sh.objects[obj] = o.withFields(nil)
	}
	h.touchObj(sh, obj)
	return nil
}

// Delete removes an object from the heap (called by the collector when the
// object is garbage, and by the migration baseline after moving it).
func (h *Heap) Delete(obj ids.ObjID) {
	sh := h.shardFor(obj)
	sh.mu.Lock()
	delete(sh.objects, obj)
	delete(sh.persistentRoots, obj)
	h.touchObj(sh, obj)
	h.touchPersist(sh, obj)
	sh.mu.Unlock()
}

// Install recreates an object under a specific identifier (checkpoint
// recovery). It fails if the identifier is already in use.
func (h *Heap) Install(id ids.ObjID, fields []ids.Ref, size int, root bool) error {
	if id == ids.NoObj {
		return fmt.Errorf("heap %v: install: zero object id", h.site)
	}
	sh := h.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.objects[id]; ok {
		return fmt.Errorf("heap %v: install: object %v already exists", h.site, id)
	}
	sh.objects[id] = &Object{id: id, fields: slices.Clone(fields), size: size}
	h.touchObj(sh, id)
	if root {
		sh.persistentRoots[id] = struct{}{}
		h.touchPersist(sh, id)
	}
	h.SetNextID(id)
	return nil
}

// Snapshot returns a copy-on-write copy of the heap: clones of every
// shard's object, persistent-root and application-root maps, plus the
// allocation high-water mark. The clones share the immutable Objects with
// the original, so a snapshot costs one map clone per shard and no
// per-object allocation. Shards are cloned concurrently, each under its
// own read lock. Later mutations of either heap install new Objects in
// that heap's own maps and leave the other untouched, so a local trace
// can read the snapshot while mutators keep modifying the live heap — the
// short-critical-section snapshot that lets the trace run outside the site
// lock (Section 6.2).
func (h *Heap) Snapshot() *Heap {
	cp := &Heap{site: h.site, shards: make([]*shard, len(h.shards))}
	cp.next.Store(h.next.Load())
	h.eachShardConcurrent(func(i int) {
		src := h.shards[i]
		src.mu.RLock()
		defer src.mu.RUnlock()
		cp.shards[i] = &shard{
			objects:         maps.Clone(src.objects),
			persistentRoots: maps.Clone(src.persistentRoots),
			appRoots:        maps.Clone(src.appRoots),
		}
	})
	return cp
}

// eachShardConcurrent runs fn(i) for every shard index, on one goroutine
// per shard when the heap has more than one.
func (h *Heap) eachShardConcurrent(fn func(i int)) {
	if len(h.shards) == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := range h.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// TraceSnapshot returns a read-only snapshot of the heap plus the Delta of
// changes since the previous TraceSnapshot call. The first call (and any
// call before EnableDeltaTracking) takes a full Snapshot and returns a
// Full delta; subsequent calls patch each shard of the retained shadow copy
// from that shard's dirty set — concurrently across shards, O(dirty) in
// total — and diff each dirty entity against its shadow state, so an idle
// heap snapshots in O(1) regardless of size.
//
// The returned heap is the shadow copy itself: it has its own shard maps
// and shares only immutable Objects with the live heap (an off-lock trace
// may read it while mutators write here), but its maps are patched in
// place by the NEXT TraceSnapshot call — the caller must be done with it
// by then. The site's trace mutex provides exactly that serialization.
func (h *Heap) TraceSnapshot() (*Heap, *Delta) {
	if !h.tracking {
		h.EnableDeltaTracking()
	}
	if h.snap == nil {
		h.snap = h.Snapshot()
		for _, sh := range h.shards {
			sh.mu.Lock()
			clear(sh.dirtyObjs)
			clear(sh.dirtyPersist)
			clear(sh.dirtyAppRoots)
			sh.mu.Unlock()
		}
		return h.snap, &Delta{Full: true}
	}
	parts := make([]Delta, len(h.shards))
	h.eachShardConcurrent(func(i int) {
		h.patchShard(h.shards[i], h.snap.shards[i], &parts[i])
	})
	h.snap.next.Store(h.next.Load())
	d := &Delta{}
	for i := range parts {
		p := &parts[i]
		d.FieldsAdded = append(d.FieldsAdded, p.FieldsAdded...)
		d.FieldsRemoved = append(d.FieldsRemoved, p.FieldsRemoved...)
		d.Allocated = append(d.Allocated, p.Allocated...)
		d.Deleted = append(d.Deleted, p.Deleted...)
		d.LocalRootsAdded = append(d.LocalRootsAdded, p.LocalRootsAdded...)
		d.LocalRootsRemoved = append(d.LocalRootsRemoved, p.LocalRootsRemoved...)
		d.RemoteRootsAdded = append(d.RemoteRootsAdded, p.RemoteRootsAdded...)
		d.RemoteRootsRemoved = append(d.RemoteRootsRemoved, p.RemoteRootsRemoved...)
	}
	d.sort()
	return h.snap, d
}

// patchShard brings one shadow shard up to date from the live shard's dirty
// set, accumulating the shard's contribution to the Delta. It locks the
// live shard; the shadow shard is owned exclusively by the snapshot
// lineage (the site's trace mutex).
func (h *Heap) patchShard(live, snap *shard, d *Delta) {
	live.mu.Lock()
	defer live.mu.Unlock()
	for obj := range live.dirtyObjs {
		liveO, liveOK := live.objects[obj]
		snapO, snapOK := snap.objects[obj]
		switch {
		case liveOK && !snapOK:
			snap.objects[obj] = liveO
			d.Allocated = append(d.Allocated, obj)
		case !liveOK && snapOK:
			delete(snap.objects, obj)
			d.Deleted = append(d.Deleted, obj)
		case liveOK && snapOK:
			added, removed := fieldDiff(snapO.fields, liveO.fields)
			snap.objects[obj] = liveO
			if added || removed {
				if removed {
					d.FieldsRemoved = append(d.FieldsRemoved, obj)
				} else {
					d.FieldsAdded = append(d.FieldsAdded, obj)
				}
			}
		}
	}
	for obj := range live.dirtyPersist {
		_, liveRoot := live.persistentRoots[obj]
		_, snapRoot := snap.persistentRoots[obj]
		switch {
		case liveRoot && !snapRoot:
			snap.persistentRoots[obj] = struct{}{}
			d.LocalRootsAdded = append(d.LocalRootsAdded, obj)
		case !liveRoot && snapRoot:
			delete(snap.persistentRoots, obj)
			d.LocalRootsRemoved = append(d.LocalRootsRemoved, obj)
		}
	}
	for r := range live.dirtyAppRoots {
		liveN := live.appRoots[r]
		snapN := snap.appRoots[r]
		if liveN > 0 {
			snap.appRoots[r] = liveN
		} else {
			delete(snap.appRoots, r)
		}
		held, was := liveN > 0, snapN > 0
		switch {
		case held && !was:
			if r.Site == h.site {
				d.LocalRootsAdded = append(d.LocalRootsAdded, r.Obj)
			} else {
				d.RemoteRootsAdded = append(d.RemoteRootsAdded, r)
			}
		case !held && was:
			if r.Site == h.site {
				d.LocalRootsRemoved = append(d.LocalRootsRemoved, r.Obj)
			} else {
				d.RemoteRootsRemoved = append(d.RemoteRootsRemoved, r)
			}
		}
	}
	clear(live.dirtyObjs)
	clear(live.dirtyPersist)
	clear(live.dirtyAppRoots)
}

// ResetTraceSnapshot discards the shadow copy so the next TraceSnapshot is
// Full. Used when a trace built on the snapshot lineage was abandoned (the
// delta it consumed is gone) and after wholesale state replacement.
func (h *Heap) ResetTraceSnapshot() {
	h.snap = nil
	if h.tracking {
		for _, sh := range h.shards {
			sh.mu.Lock()
			clear(sh.dirtyObjs)
			clear(sh.dirtyPersist)
			clear(sh.dirtyAppRoots)
			sh.mu.Unlock()
		}
	}
}

// MaxShardDirtyRatio returns the largest per-shard ratio of dirty entities
// to shard objects since the last TraceSnapshot (0 when tracking is off or
// the heap is empty). Incremental sites export it as the
// localtrace.parallel.shard_dirty_ratio gauge: a ratio near 1 on one shard
// while others idle shows mutation skew that per-shard snapshot patching
// absorbs and a global snapshot would not.
func (h *Heap) MaxShardDirtyRatio() float64 {
	if !h.tracking {
		return 0
	}
	max := 0.0
	for _, sh := range h.shards {
		sh.mu.RLock()
		dirty := len(sh.dirtyObjs) + len(sh.dirtyPersist) + len(sh.dirtyAppRoots)
		n := len(sh.objects)
		sh.mu.RUnlock()
		if n == 0 {
			n = 1
		}
		if r := float64(dirty) / float64(n); r > max {
			max = r
		}
	}
	return max
}

func (d *Delta) sort() {
	objs := func(s []ids.ObjID) {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	refs := func(s []ids.Ref) {
		sort.Slice(s, func(i, j int) bool { return s[i].Less(s[j]) })
	}
	objs(d.FieldsAdded)
	objs(d.FieldsRemoved)
	objs(d.Allocated)
	objs(d.Deleted)
	objs(d.LocalRootsAdded)
	objs(d.LocalRootsRemoved)
	refs(d.RemoteRootsAdded)
	refs(d.RemoteRootsRemoved)
}

// fieldDiff compares two field multisets: added reports a reference present
// more times in new than old, removed the reverse. An edge added and then
// removed again between snapshots reports neither.
func fieldDiff(old, new []ids.Ref) (added, removed bool) {
	if len(old) == 0 || len(new) == 0 {
		return len(new) > len(old), len(old) > len(new)
	}
	counts := make(map[ids.Ref]int, len(old))
	for _, f := range old {
		counts[f]++
	}
	for _, f := range new {
		counts[f]--
	}
	for _, n := range counts {
		if n > 0 {
			removed = true
		} else if n < 0 {
			added = true
		}
	}
	return added, removed
}

// NextID returns the allocation high-water mark (for checkpointing).
func (h *Heap) NextID() ids.ObjID { return ids.ObjID(h.next.Load()) }

// SetNextID raises the allocation high-water mark (checkpoint recovery);
// it never lowers it.
func (h *Heap) SetNextID(n ids.ObjID) {
	for {
		cur := h.next.Load()
		if uint64(n) <= cur || h.next.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// Adopt installs an object received from another site under a fresh local
// identifier (used by the migration baseline) and returns its new local
// reference. The object's fields are supplied by the caller.
func (h *Heap) Adopt(fields []ids.Ref, size int) ids.Ref {
	id := ids.ObjID(h.next.Add(1))
	o := &Object{id: id, fields: slices.Clone(fields), size: size}
	sh := h.shardFor(id)
	sh.mu.Lock()
	sh.objects[id] = o
	h.touchObj(sh, id)
	sh.mu.Unlock()
	return ids.MakeRef(h.site, id)
}

// --- application roots --------------------------------------------------

// AddAppRoot records that a mutator variable on this site holds the given
// reference (local or remote). Multiple holds are counted.
func (h *Heap) AddAppRoot(r ids.Ref) {
	sh := h.shardFor(r.Obj)
	sh.mu.Lock()
	sh.appRoots[r]++
	h.touchAppRoot(sh, r)
	sh.mu.Unlock()
}

// RemoveAppRoot releases one mutator-variable hold on the reference. It
// reports whether a hold existed.
func (h *Heap) RemoveAppRoot(r ids.Ref) bool {
	sh := h.shardFor(r.Obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.appRoots[r]
	if !ok {
		return false
	}
	if n <= 1 {
		delete(sh.appRoots, r)
	} else {
		sh.appRoots[r] = n - 1
	}
	h.touchAppRoot(sh, r)
	return true
}

// AppRoots returns the distinct references held by mutator variables, in
// ascending order.
func (h *Heap) AppRoots() []ids.Ref {
	var out []ids.Ref
	for _, sh := range h.shards {
		sh.mu.RLock()
		for r := range sh.appRoots {
			out = append(out, r)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// HoldsAppRoot reports whether any mutator variable holds the reference.
func (h *Heap) HoldsAppRoot(r ids.Ref) bool {
	sh := h.shardFor(r.Obj)
	sh.mu.RLock()
	n := sh.appRoots[r]
	sh.mu.RUnlock()
	return n > 0
}

// --- reachability helpers (used by local tracing and by tests) ----------

// lockAllRead takes every shard's read lock in index order; the returned
// function releases them.
func (h *Heap) lockAllRead() func() {
	for _, sh := range h.shards {
		sh.mu.RLock()
	}
	return func() {
		for _, sh := range h.shards {
			sh.mu.RUnlock()
		}
	}
}

// LocalReachable computes the set of local objects reachable from the given
// starting references by following only local references (remote fields are
// not followed). Starting references owned by other sites are ignored.
func (h *Heap) LocalReachable(starts []ids.Ref) map[ids.ObjID]struct{} {
	defer h.lockAllRead()()
	seen := make(map[ids.ObjID]struct{})
	var stack []ids.ObjID
	push := func(r ids.Ref) {
		if r.Site != h.site {
			return
		}
		if _, ok := h.shardFor(r.Obj).objects[r.Obj]; !ok {
			return
		}
		if _, ok := seen[r.Obj]; ok {
			return
		}
		seen[r.Obj] = struct{}{}
		stack = append(stack, r.Obj)
	}
	for _, s := range starts {
		push(s)
	}
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range h.shardFor(obj).objects[obj].fields {
			push(f)
		}
	}
	return seen
}

// RemoteRefsFrom returns, in ascending order, the distinct remote references
// held in the fields of the given set of local objects.
func (h *Heap) RemoteRefsFrom(objs map[ids.ObjID]struct{}) []ids.Ref {
	defer h.lockAllRead()()
	set := make(map[ids.Ref]struct{})
	for obj := range objs {
		o, ok := h.shardFor(obj).objects[obj]
		if !ok {
			continue
		}
		for _, f := range o.fields {
			if f.Site != h.site && !f.IsZero() {
				set[f] = struct{}{}
			}
		}
	}
	out := make([]ids.Ref, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
