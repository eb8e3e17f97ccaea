package sim

import (
	"cmp"
	"math"
	"slices"

	"countrymon/internal/netmodel"
)

// maxEvents bounds an event script: the index holds event numbers as int16.
const maxEvents = math.MaxInt16

// eventIndex is the event script compiled for evaluation. Blocks with the same
// event list form a class (a world has far fewer classes than blocks), and a
// class is compiled once into its edges — the sorted distinct From and To of
// its events on the scenario clock — and, per span between two edges, the
// events holding throughout it. A span keeps them in event order and
// precomputes nothing: stateIn applies them one by one as a scan of the whole
// list would, less the events that do not hold. All classes share four pools.
type eventIndex struct {
	blockClass []int32 // block index → class
	// Class c owns events[evOff[c]:evOff[c+1]], its event list (ascending), and
	// edges[edgeOff[c]:edgeOff[c+1]].
	evOff, edgeOff []int
	events         []int16
	edges          []int64
	// active[spanOff[i]:spanOff[i+1]] holds from edges[i] to the class's next
	// edge; nothing holds before a class's first edge or from its last.
	spanOff []int
	active  []int16
}

// blockEvents lists the events naming block bi, ascending.
func (ix *eventIndex) blockEvents(bi int) []int16 {
	c := ix.blockClass[bi]
	return ix.events[ix.evOff[c]:ix.evOff[c+1]]
}

// activeAt lists, in event order, the events holding for block bi at clock
// instant at (below math.MaxInt64, see instantAt): those with From ≤ at < To.
func (ix *eventIndex) activeAt(bi int, at int64) []int16 {
	c := ix.blockClass[bi]
	lo := ix.edgeOff[c]
	// The span starts at the class's last edge at or before at.
	k, _ := slices.BinarySearch(ix.edges[lo:ix.edgeOff[c+1]], at+1)
	if k == 0 {
		return nil
	}
	return ix.active[ix.spanOff[lo+k-1]:ix.spanOff[lo+k]]
}

// spanCursor walks one class's spans forward. For clocks that never decrease
// from call to call it answers what activeAt does, stepping over the edges
// passed since the last call instead of searching for the span.
type spanCursor struct {
	ix               *eventIndex
	first, next, end int // the class's edges are edges[first:end]; edges[next:end] lie after the last clock
}

// cursor starts a spanCursor over block bi's class, before its first edge.
func (ix *eventIndex) cursor(bi int) spanCursor {
	c := ix.blockClass[bi]
	return spanCursor{ix: ix, first: ix.edgeOff[c], next: ix.edgeOff[c], end: ix.edgeOff[c+1]}
}

// at lists, in event order, the events holding at clock, which is no earlier
// than the clock of the last call.
func (cu *spanCursor) at(clock int64) []int16 {
	for cu.next < cu.end && cu.ix.edges[cu.next] <= clock {
		cu.next++
	}
	if cu.next == cu.first {
		return nil
	}
	return cu.ix.active[cu.ix.spanOff[cu.next-1]:cu.ix.spanOff[cu.next]]
}

// indexEvents compiles the event script after the scenario's blocks and
// events are final. Events are sorted chronologically first (stable, ties
// broken by name): downstream consumers — Events() listings and
// truth-window derivation — assume chronological order, and event sources
// like Assemble accept events in any order.
func (s *Scenario) indexEvents() {
	slices.SortStableFunc(s.events, func(a, b Event) int {
		return cmp.Or(a.From.Compare(b.From), cmp.Compare(a.Name, b.Name))
	})
	for _, tr := range s.asTraits {
		tr.activeFrom, tr.activeTo = math.MinInt64, math.MaxInt64
		if !tr.ActiveFrom.IsZero() {
			tr.activeFrom = s.clock(tr.ActiveFrom)
		}
		if !tr.ActiveTo.IsZero() {
			tr.activeTo = s.clock(tr.ActiveTo)
		}
	}

	// Index the blocks by AS and home region (Space does by id), so that an
	// event visits only the blocks it names; the per-block AS-traits table
	// saves stateIn a map lookup per (block, round).
	s.blockAS = make([]*ASTraits, len(s.blocks))
	byASN := make(map[netmodel.ASN][]int32, len(s.asTraits))
	byRegion := make(map[netmodel.Region][]int32)
	for bi := range s.blocks {
		bt := &s.blocks[bi]
		s.blockAS[bi] = s.asTraits[bt.ASN]
		byASN[bt.ASN] = append(byASN[bt.ASN], int32(bi))
		byRegion[bt.HomeRegion] = append(byRegion[bt.HomeRegion], int32(bi))
	}

	// Class the blocks by refinement: all start in class 0, of no events, and
	// event by event the blocks an event names move from their class to its
	// child for that event. A class is its parent's list plus one event, so
	// two blocks share a class exactly when they share a list; a block named
	// twice by one event is already in a child of it.
	type class struct {
		parent, compiled int32 // compiled: 1 + its place in the index, once it has one
		ev               int16
	}
	tree := []class{{parent: -1, ev: -1}}
	classOf := make([]int32, len(s.blocks))
	child := make(map[int32]int32) // of the classes the current event split
	from, to := make([]int64, len(s.events)), make([]int64, len(s.events))
	var named []int32
	for ei := range s.events {
		ev := &s.events[ei]
		from[ei], to[ei] = s.clock(ev.From), s.clock(ev.To)
		named = named[:0]
		for _, a := range ev.ASNs {
			named = append(named, byASN[a]...)
		}
		for _, r := range ev.Regions {
			named = append(named, byRegion[r]...)
		}
		for _, b := range ev.Blocks {
			if bi := s.Space.BlockIndex(b); bi >= 0 {
				named = append(named, int32(bi))
			}
		}
		clear(child)
		for _, bi := range named {
			c := classOf[bi]
			if tree[c].ev == int16(ei) {
				continue
			}
			if _, ok := child[c]; !ok {
				child[c] = int32(len(tree))
				tree = append(tree, class{parent: c, ev: int16(ei)})
			}
			classOf[bi] = child[c]
		}
	}

	// Compile the classes that ended up with blocks, in block order.
	ix := &s.index
	*ix = eventIndex{blockClass: classOf, evOff: []int{0}, edgeOff: []int{0}, spanOff: []int{0}}
	for bi, c := range classOf {
		if tree[c].compiled == 0 {
			lo := len(ix.events)
			for k := c; k > 0; k = tree[k].parent {
				ix.events = append(ix.events, tree[k].ev)
			}
			slices.Reverse(ix.events[lo:])
			ix.compile(ix.events[lo:], from, to)
			ix.evOff, ix.edgeOff = append(ix.evOff, len(ix.events)), append(ix.edgeOff, len(ix.edges))
			tree[c].compiled = int32(len(ix.evOff) - 1)
		}
		classOf[bi] = tree[c].compiled - 1
	}
	s.indexMemo()
}

// compile appends the edges and spans of one class, given its event list
// (ascending, which is From order) and every event's bounds on the clock. An
// event with To ≤ From holds nowhere.
func (ix *eventIndex) compile(events []int16, from, to []int64) {
	lo := len(ix.edges)
	for _, ei := range events {
		if from[ei] < to[ei] {
			ix.edges = append(ix.edges, from[ei], to[ei])
		}
	}
	slices.Sort(ix.edges[lo:])
	ix.edges = ix.edges[:lo+len(slices.Compact(ix.edges[lo:]))]
	for _, t := range ix.edges[lo:] {
		// Events are in From order: one that ended by t has ended for every
		// later span too, and past the first that has not begun none has.
		for len(events) > 0 && to[events[0]] <= t {
			events = events[1:]
		}
		for _, ei := range events {
			if from[ei] > t {
				break
			}
			if t < to[ei] {
				ix.active = append(ix.active, ei)
			}
		}
		ix.spanOff = append(ix.spanOff, len(ix.active))
	}
}
