package core

import (
	"container/heap"
	"sync"
)

// winSched is the dataflow window scheduler of one DistOpt pass (DESIGN.md
// §4f). Instead of a barrier per diagonal family, it orders window builds
// and commits by the nets windows share:
//
//  1. A window builds once every window of an earlier family (in schedule
//     order) that shares a net with it has committed.
//  2. A window's moves commit once every same-family window that shares a
//     net with it has finished building.
//  3. Workers claim the earliest build-ready window in schedule order.
//
// Together the rules show every window exactly the placement a family
// barrier would show it, so results do not depend on the worker count.
//
// Sharing is tracked per net group: the scheduled windows of one family
// whose movable cells touch one net. A net's groups form a chain in
// schedule order. A group may build once the group before it in the chain has
// fully committed (rule 1), and its windows may commit once the group has
// fully built (rule 2). The window lists are fixed for the pass: a
// window's movable cells are moved by that window alone, and it has not
// run yet when the pass starts.
type winSched struct {
	// win[k] is the grid window id of scheduled window k, in schedule order:
	// families in diagonal order, each family's windows in family order.
	win []int

	// The groups of window k are incGrp[incStart[k]:incStart[k+1]], one per
	// distinct non-clock net of its movable cells. Incidence i belongs to
	// window incWin[i]; incNext[i] is the next incidence of the same group,
	// -1 at the end of the list that starts at grpHead.
	incStart []int32
	incGrp   []int32
	incWin   []int32
	incNext  []int32

	grpHead    []int32 // first incidence of each group
	grpNext    []int32 // the net's next group in schedule order, or -1
	grpUnbuilt []int32 // members still to finish building
	grpPending []int32 // members still to commit

	buildGate  []int32 // rule 1: groups of window k not yet released
	commitGate []int32 // rule 2: groups of window k with a member still to build

	mu      sync.Mutex
	cond    sync.Cond // signals every state change below
	held    []bool    // solved, but rule 2 still holds the moves back
	moves   [][]Move  // accepted moves of a solved window until it commits
	work    milpWork  // summed over the solved windows
	ready   readyHeap
	queue   []int32 // commit-ready windows
	started int     // windows claimed by workers
	running int     // claimed windows not yet solved
	done    int     // windows committed
	stopped bool    // canceled: no window may start any more
}

// newWinSched derives the dependency structure of a pass over the
// families in diagonal order. A window's movable cells are its bucket's cells
// inside its span (buildGeom's predicate); their nets come from the
// tracker's inst→nets index, which lists non-clock nets only, as the
// window's own net build does.
func newWinSched(t *ObjTracker, g passGrid, families [][]int) *winSched {
	p := t.p
	s := &winSched{}
	s.cond.L = &s.mu
	var fam []int32 // family index of each scheduled window
	for fi, members := range families {
		for _, wid := range members {
			s.win = append(s.win, wid)
			fam = append(fam, int32(fi))
		}
	}
	n := len(s.win)
	s.incStart = make([]int32, n+1)
	s.buildGate = make([]int32, n)
	s.commitGate = make([]int32, n)

	seen := make([]int32, len(p.Design.Nets)) // 1 + last window listing the net
	last := make([]int32, len(p.Design.Nets)) // 1 + the net's latest group
	var grpFam, grpTail []int32
	var gated []bool // the group is not its net's first: it starts unreleased
	for k, wid := range s.win {
		s0, s1, r0, r1 := windowSpan(p, g.rects[wid])
		for _, i := range g.buckets[wid] {
			if !insideSpan(p, i, s0, s1, r0, r1) {
				continue
			}
			for _, ni := range t.instNets[i] {
				if seen[ni] == int32(k+1) {
					continue
				}
				seen[ni] = int32(k + 1)
				gi := last[ni] - 1
				if gi < 0 || grpFam[gi] != fam[k] {
					ng := int32(len(s.grpHead))
					s.grpHead = append(s.grpHead, -1)
					s.grpNext = append(s.grpNext, -1)
					s.grpUnbuilt = append(s.grpUnbuilt, 0)
					grpFam = append(grpFam, fam[k])
					grpTail = append(grpTail, -1)
					gated = append(gated, gi >= 0)
					if gi >= 0 {
						s.grpNext[gi] = ng
					}
					last[ni] = ng + 1
					gi = ng
				}
				ii := int32(len(s.incGrp))
				s.incGrp = append(s.incGrp, gi)
				s.incWin = append(s.incWin, int32(k))
				s.incNext = append(s.incNext, -1)
				if grpTail[gi] < 0 {
					s.grpHead[gi] = ii
				} else {
					s.incNext[grpTail[gi]] = ii
				}
				grpTail[gi] = ii
				s.grpUnbuilt[gi]++
				if gated[gi] {
					s.buildGate[k]++
				}
			}
		}
		s.incStart[k+1] = int32(len(s.incGrp))
		s.commitGate[k] = s.incStart[k+1] - s.incStart[k]
	}
	s.grpPending = append([]int32(nil), s.grpUnbuilt...)
	s.held = make([]bool, n)
	s.moves = make([][]Move, n)
	for k := range s.win {
		if s.buildGate[k] == 0 {
			s.ready = append(s.ready, int32(k)) // ascending: already a heap
		}
	}
	return s
}

// groups returns the net groups of window k.
func (s *winSched) groups(k int) []int32 { return s.incGrp[s.incStart[k]:s.incStart[k+1]] }

// claim blocks until a window is build-ready and claims the earliest one
// (rule 3). It reports false once every window is claimed or the pass is
// stopped.
func (s *winSched) claim() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ready) == 0 {
		if s.stopped || s.started == len(s.win) {
			return 0, false
		}
		s.cond.Wait()
	}
	if s.stopped {
		return 0, false
	}
	k := int(heap.Pop(&s.ready).(int32))
	s.started++
	s.running++
	return k, true
}

// built records that window k finished buildNetsPairs. A group whose
// windows have all built lets them commit (rule 2).
func (s *winSched) built(k int) {
	s.mu.Lock()
	for _, g := range s.groups(k) {
		if s.grpUnbuilt[g]--; s.grpUnbuilt[g] > 0 {
			continue
		}
		for i := s.grpHead[g]; i >= 0; i = s.incNext[i] {
			v := s.incWin[i]
			if s.commitGate[v]--; s.commitGate[v] == 0 && s.held[v] {
				s.enqueue(v)
			}
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// solved hands window k's accepted moves to the committer and adds its
// branch-and-bound work to the pass's. The moves are copied, so the caller
// may reuse its buffer.
func (s *winSched) solved(k int, moves []Move, work milpWork) {
	s.mu.Lock()
	s.work.nodes += work.nodes
	s.work.capped += work.capped
	if len(moves) > 0 {
		s.moves[k] = append([]Move(nil), moves...)
	}
	s.running--
	if s.commitGate[k] == 0 {
		s.enqueue(int32(k))
	} else {
		s.held[k] = true
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *winSched) enqueue(k int32) {
	s.held[k] = false
	s.queue = append(s.queue, k)
}

// nextCommit blocks until a window may commit and returns it with its
// moves. It reports false when the pass is over: every window committed,
// or the pass stopped with no window in flight and none left to commit.
func (s *winSched) nextCommit() (int, []Move, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 {
		if s.done == len(s.win) {
			return 0, nil, false
		}
		if s.stopped && s.running == 0 {
			// No window is building any more, so those rule 2 still holds
			// back can commit without changing what any window read.
			for k, h := range s.held {
				if h {
					s.enqueue(int32(k))
				}
			}
			if len(s.queue) == 0 {
				return 0, nil, false
			}
			break
		}
		s.cond.Wait()
	}
	k := s.queue[0]
	s.queue = s.queue[1:]
	mv := s.moves[k]
	s.moves[k] = nil
	return int(k), mv, true
}

// committed records window k's commit. A group whose windows have all
// committed releases the net's next group to build (rule 1).
func (s *winSched) committed(k int) {
	s.mu.Lock()
	s.done++
	for _, g := range s.groups(k) {
		if s.grpPending[g]--; s.grpPending[g] > 0 || s.grpNext[g] < 0 {
			continue
		}
		for i := s.grpHead[s.grpNext[g]]; i >= 0; i = s.incNext[i] {
			v := s.incWin[i]
			if s.buildGate[v]--; s.buildGate[v] == 0 {
				heap.Push(&s.ready, v)
			}
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// stop ends the pass early: no window is claimed after it. Windows in
// flight still finish and commit.
func (s *winSched) stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// readyHeap is a min-heap of build-ready scheduled-window indices, so
// workers claim in schedule order (rule 3).
type readyHeap []int32

func (h readyHeap) Len() int           { return len(h) }
func (h readyHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h readyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)        { *h = append(*h, x.(int32)) }
func (h *readyHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}
