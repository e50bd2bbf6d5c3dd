package main

import (
	bt "backtrace"
)

// model is the generator's own copy of the object graph it built. The
// generator is the only mutator, so reachability in the model is exact: it
// is what death stamps and the correctness gate are judged against, with
// no oracle call into the program.
//
// Objects are dense int32 indices. Every list is a slice kept in a
// deterministic order; the one map (index) is used for lookups only and
// never ranged over, so a seed replays the same draws.
type model struct {
	objs  []mobj
	index map[bt.Ref]int32
	// live holds, per site (index site-1), the live objects in a
	// swap-remove order; pos is each live object's position in it.
	live  [][]int32
	pos   []int32
	nLive int

	// Scratch for collect, stamped per call so it never needs clearing.
	mark  []uint32
	epoch uint32
	stack []int32
	cand  []int32
}

type mobj struct {
	ref    bt.Ref
	fields []int32 // outgoing references, with multiplicity
	preds  []int32 // live objects referencing this one, with multiplicity
	root   bool    // persistent root
	holds  int32   // generator-held mutator variables
	dead   bool
}

func newModel(sites int) *model {
	return &model{index: make(map[bt.Ref]int32), live: make([][]int32, sites)}
}

// add records a new object, live because it is a root or held.
func (m *model) add(r bt.Ref, root bool, holds int32) int32 {
	id := int32(len(m.objs))
	m.objs = append(m.objs, mobj{ref: r, root: root, holds: holds})
	m.index[r] = id
	s := int(r.Site) - 1
	m.pos = append(m.pos, int32(len(m.live[s])))
	m.live[s] = append(m.live[s], id)
	m.mark = append(m.mark, 0)
	m.nLive++
	return id
}

func (m *model) site(id int32) bt.SiteID { return m.objs[id].ref.Site }

func (m *model) addEdge(a, b int32) {
	m.objs[a].fields = append(m.objs[a].fields, b)
	m.objs[b].preds = append(m.objs[b].preds, a)
}

// removeEdge drops one a→b reference and returns the objects that died.
func (m *model) removeEdge(a, b int32) []int32 {
	removeOne(&m.objs[a].fields, b)
	removeOne(&m.objs[b].preds, a)
	return m.collect(b)
}

// release drops one generator hold on id and returns the objects that died.
func (m *model) release(id int32) []int32 {
	m.objs[id].holds--
	return m.collect(id)
}

func (m *model) hasEdge(a, b int32) bool {
	for _, f := range m.objs[a].fields {
		if f == b {
			return true
		}
	}
	return false
}

// collect finds the objects that a cut at b killed. Only objects in the
// forward closure C of b can have lost a root path; an object of C stays
// live exactly when it is reachable inside C from a root or hold in C, or
// from a live object outside C. The cost is O(|C|), not O(heap).
func (m *model) collect(b int32) []int32 {
	if m.objs[b].dead {
		return nil
	}
	m.epoch += 2
	inC, alive := m.epoch, m.epoch+1
	c := m.cand[:0]
	stack := append(m.stack[:0], b)
	m.mark[b] = inC
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c = append(c, x)
		for _, f := range m.objs[x].fields {
			if !m.objs[f].dead && m.mark[f] != inC {
				m.mark[f] = inC
				stack = append(stack, f)
			}
		}
	}
	for _, x := range c {
		if m.mark[x] != inC || !m.seed(x, inC, alive) {
			continue
		}
		m.mark[x] = alive
		stack = append(stack[:0], x)
		for len(stack) > 0 {
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, f := range m.objs[y].fields {
				if m.mark[f] == inC {
					m.mark[f] = alive
					stack = append(stack, f)
				}
			}
		}
	}
	var dead []int32
	for _, x := range c {
		if m.mark[x] == inC {
			dead = append(dead, x)
		}
	}
	for _, x := range dead {
		m.kill(x)
	}
	m.cand, m.stack = c, stack
	return dead
}

// seed reports whether x, a member of C, keeps a root path that avoids C.
func (m *model) seed(x int32, inC, alive uint32) bool {
	o := &m.objs[x]
	if o.root || o.holds > 0 {
		return true
	}
	for _, p := range o.preds {
		if mk := m.mark[p]; mk != inC && mk != alive {
			return true
		}
	}
	return false
}

func (m *model) kill(x int32) {
	o := &m.objs[x]
	o.dead = true
	m.nLive--
	s := int(o.ref.Site) - 1
	list := m.live[s]
	last := list[len(list)-1]
	list[m.pos[x]] = last
	m.pos[last] = m.pos[x]
	m.live[s] = list[:len(list)-1]
	for _, f := range o.fields {
		removeOne(&m.objs[f].preds, x)
	}
}

// removeOne deletes one occurrence of v, keeping the order of the rest so
// that later draws replay exactly.
func removeOne(s *[]int32, v int32) {
	l := *s
	for i, x := range l {
		if x == v {
			*s = append(l[:i], l[i+1:]...)
			return
		}
	}
}
