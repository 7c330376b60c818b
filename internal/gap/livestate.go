package gap

import (
	"sync"

	"argan/internal/ace"
	"argan/internal/graph"
	"argan/internal/mem"
)

// batchPool recycles message batches between senders and receivers: takeOut
// hands a filled batch to the transport and replaces the accumulator's
// backing slice from the pool; the receiver returns the batch after h_in.
// A bounded mutex-guarded free list is used instead of sync.Pool so a put
// never allocates (boxing a slice into an interface would) and reuse is
// deterministic under test.
type batchPool[V any] struct {
	mu   sync.Mutex
	free [][]ace.Message[V]

	// Free-list accounting under a memory governor (nil acct = ungoverned):
	// held tracks the bytes parked in free so the governor sees pooled
	// capacity as pressure it can shed via trim.
	acct *mem.Account
	wire int64
	held int64
}

// batchPoolCap bounds the free list; overflow batches are left to the GC.
const batchPoolCap = 256

func (bp *batchPool[V]) get() []ace.Message[V] {
	bp.mu.Lock()
	if n := len(bp.free); n > 0 {
		s := bp.free[n-1]
		bp.free[n-1] = nil
		bp.free = bp.free[:n-1]
		if bp.acct != nil {
			b := int64(cap(s)) * bp.wire
			bp.held -= b
			bp.acct.Add(-b)
		}
		bp.mu.Unlock()
		return s
	}
	bp.mu.Unlock()
	return make([]ace.Message[V], 0, 64)
}

func (bp *batchPool[V]) put(s []ace.Message[V]) {
	if cap(s) == 0 {
		return
	}
	bp.mu.Lock()
	if len(bp.free) < batchPoolCap {
		bp.free = append(bp.free, s[:0])
		if bp.acct != nil {
			b := int64(cap(s)) * bp.wire
			bp.held += b
			bp.acct.Add(b)
		}
	}
	bp.mu.Unlock()
}

// trim releases the free list under memory pressure; batches in flight are
// untouched and the pool refills organically once pressure clears.
func (bp *batchPool[V]) trim() {
	bp.mu.Lock()
	for i := range bp.free {
		bp.free[i] = nil
	}
	bp.free = bp.free[:0]
	if bp.acct != nil && bp.held != 0 {
		bp.acct.Add(-bp.held)
		bp.held = 0
	}
	bp.mu.Unlock()
}

// liveState is the per-worker state shared by the live drivers (async and
// BSP): status variables, active set, per-peer out-accumulators and the ACE
// context wiring. It contains no synchronization — each instance is owned
// by exactly one goroutine at a time.
type liveState[V any] struct {
	id   int
	frag *graph.Fragment
	prog ace.Program[V]
	deps ace.DepKind

	psi    []V
	active *activeSet
	ctx    *ace.Ctx[V]

	out []liveOutAcc[V]

	// rs is the exactly-once ingestion and crash-recovery state (per-peer
	// sequence cursors, reorder buffers, sender incarnations, undo log). nil
	// unless the live driver runs with link faults or crash restarts — the
	// default pipeline carries no sequencing overhead.
	rs *recoverState[V]

	pool   *batchPool[V]
	lookup []uint32 // global id -> local id + 1; 0 = not present
	// combine coalesces two outgoing values for one vertex: the program's
	// Combiner, falling back to an Aggregate fold.
	combine func(a, b V) V
}

// liveOutAcc accumulates the outgoing batch for one peer. It coalesces
// through a generation-stamped dense index keyed by the sender's local
// vertex id (every enqueued vertex is local to the sender), so a flush is
// a pointer swap plus a generation bump — no per-flush allocation.
type liveOutAcc[V any] struct {
	msgs []ace.Message[V]

	slotGen []uint32 // slotGen[l] == gen ⇒ msgs[slotIdx[l]] holds vertex l
	slotIdx []uint32
	gen     uint32
}

// newLiveState builds worker id's state over f; batches it ships are drawn
// from, and recycled into, pool.
func newLiveState[V any](id int, f *graph.Fragment, prog ace.Program[V], q ace.Query, pool *batchPool[V]) *liveState[V] {
	st := &liveState[V]{id: id, frag: f, prog: prog, deps: prog.Deps(), pool: pool}
	prog.Setup(f, q)
	st.psi = make([]V, f.NumLocal())
	var prio func(uint32) float64
	if p, ok := any(prog).(ace.Prioritizer[V]); ok {
		prio = func(l uint32) float64 { return p.Priority(st.psi[l]) }
	}
	st.active = newActiveSet(f.NumOwned(), prio)
	st.out = make([]liveOutAcc[V], f.NumWorkers())
	for j := range st.out {
		st.out[j] = liveOutAcc[V]{gen: 1}
	}
	st.lookup = make([]uint32, f.GlobalVertices())
	for l := uint32(0); int(l) < f.NumLocal(); l++ {
		st.lookup[f.Global(l)] = l + 1
	}
	if c, ok := any(prog).(ace.Combiner[V]); ok {
		st.combine = c.Combine
	} else {
		st.combine = func(a, b V) V {
			v, _ := prog.Aggregate(a, b)
			return v
		}
	}
	st.ctx = ace.NewCtx(f, st.psi, st.ctxSet, st.ctxSend, st.ctxActivate)
	for l := uint32(0); int(l) < f.NumLocal(); l++ {
		v, act := prog.InitValue(f, l, q)
		st.psi[l] = v
		if act && f.IsOwned(l) {
			st.active.Push(l)
		}
	}
	if is, ok := any(prog).(ace.InitialSyncer); ok && is.InitialSync() {
		for l := uint32(0); int(l) < f.NumOwned(); l++ {
			g := f.Global(l)
			for _, r := range f.ReplicasOut(l) {
				st.enqueue(int(r), l, g, st.psi[l])
			}
			if f.Directed() && st.deps != ace.DepIn && st.deps != ace.DepSelf {
				for _, r := range f.ReplicasIn(l) {
					dup := false
					for _, r2 := range f.ReplicasOut(l) {
						if r2 == r {
							dup = true
							break
						}
					}
					if !dup {
						st.enqueue(int(r), l, g, st.psi[l])
					}
				}
			}
		}
	}
	return st
}

// enqueue buffers ⟨g, val⟩ for peer. l is the sender-local id of g (every
// vertex a worker ships is local to it: owned border vertices and ghosts),
// which keys the dense coalescing index.
func (st *liveState[V]) enqueue(peer int, l uint32, g graph.VID, val V) {
	o := st.slots(peer)
	if o.slotGen[l] == o.gen {
		k := o.slotIdx[l]
		o.msgs[k].Val = st.combine(o.msgs[k].Val, val)
		return
	}
	o.slotGen[l] = o.gen
	o.slotIdx[l] = uint32(len(o.msgs))
	o.msgs = append(o.msgs, ace.Message[V]{V: g, Val: val})
}

// slots returns the peer's accumulator with its coalescing index allocated
// (lazily: most worker pairs of a sparse partition never exchange).
func (st *liveState[V]) slots(peer int) *liveOutAcc[V] {
	o := &st.out[peer]
	if o.slotGen == nil {
		o.slotGen = make([]uint32, st.frag.NumLocal())
		o.slotIdx = make([]uint32, st.frag.NumLocal())
	}
	return o
}

func (st *liveState[V]) activateDeps(lv uint32) {
	push := func(us []uint32) {
		for _, u := range us {
			if st.frag.IsOwned(u) {
				st.active.Push(u)
			}
		}
	}
	switch st.deps {
	case ace.DepOut:
		push(st.frag.InNeighbors(lv))
	case ace.DepBoth:
		push(st.frag.InNeighbors(lv))
		push(st.frag.OutNeighbors(lv))
	default:
		push(st.frag.OutNeighbors(lv))
	}
}

func (st *liveState[V]) ctxSet(l uint32, v V) {
	old := st.psi[l]
	st.psi[l] = v
	if st.prog.Equal(old, v) || st.deps == ace.DepSelf {
		return
	}
	g := st.frag.Global(l)
	switch st.deps {
	case ace.DepOut:
		for _, r := range st.frag.ReplicasIn(l) {
			st.enqueue(int(r), l, g, v)
		}
	case ace.DepBoth:
		for _, r := range st.frag.ReplicasOut(l) {
			st.enqueue(int(r), l, g, v)
		}
		for _, r := range st.frag.ReplicasIn(l) {
			dup := false
			for _, r2 := range st.frag.ReplicasOut(l) {
				if r2 == r {
					dup = true
					break
				}
			}
			if !dup {
				st.enqueue(int(r), l, g, v)
			}
		}
	default:
		for _, r := range st.frag.ReplicasOut(l) {
			st.enqueue(int(r), l, g, v)
		}
	}
	st.activateDeps(l)
}

func (st *liveState[V]) ctxSend(l uint32, d V) {
	if st.frag.IsOwned(l) {
		nv, ch := st.prog.Aggregate(st.psi[l], d)
		if ch {
			st.psi[l] = nv
			st.active.Push(l)
		}
		return
	}
	g := st.frag.Global(l)
	st.enqueue(st.frag.OwnerOf(g), l, g, d)
}

func (st *liveState[V]) ctxActivate(l uint32) {
	if st.frag.IsOwned(l) {
		st.active.Push(l)
	}
}

// local resolves a global id to the local index through the dense lookup.
func (st *liveState[V]) local(g graph.VID) (uint32, bool) {
	if int(g) < len(st.lookup) {
		l := st.lookup[g]
		return l - 1, l != 0
	}
	return 0, false
}

// ingest applies one batch to Ψ (h_in) and re-activates dependents.
func (st *liveState[V]) ingest(msgs []ace.Message[V]) {
	for _, m := range msgs {
		lv, ok := st.local(m.V)
		if !ok {
			continue
		}
		nv, ch := st.prog.Aggregate(st.psi[lv], m.Val)
		if !ch {
			continue
		}
		st.psi[lv] = nv
		if st.deps == ace.DepSelf {
			if st.frag.IsOwned(lv) {
				st.active.Push(lv)
			}
		} else {
			st.activateDeps(lv)
		}
	}
}

// takeOut removes and returns the accumulated batch for the peer, swapping
// in a recycled backing slice and bumping the coalescing generation.
// Ownership of the returned batch transfers to the caller (the receiver
// recycles it via the pool after h_in).
func (st *liveState[V]) takeOut(peer int) []ace.Message[V] {
	o := &st.out[peer]
	if len(o.msgs) == 0 {
		return nil
	}
	msgs := o.msgs
	o.msgs = st.pool.get()
	o.gen++
	return msgs
}

// restoreOut overwrites the peer's accumulator with the snapshot batch and
// rebuilds its coalescing index.
func (st *liveState[V]) restoreOut(peer int, msgs []ace.Message[V]) {
	o := &st.out[peer]
	o.msgs = append(o.msgs[:0], msgs...)
	o.gen++
	if len(o.msgs) == 0 {
		return
	}
	o = st.slots(peer)
	for k, m := range o.msgs {
		if l, ok := st.local(m.V); ok {
			o.slotGen[l] = o.gen
			o.slotIdx[l] = uint32(k)
		}
	}
}

// outputs extracts the owned results.
func (st *liveState[V]) outputs(into []V) {
	for l := uint32(0); int(l) < st.frag.NumOwned(); l++ {
		into[st.frag.Global(l)] = st.prog.Output(st.ctx, l)
	}
}

// finalPsi extracts the raw owned status variables (pre-Output view), which
// warm restarts re-converge from.
func (st *liveState[V]) finalPsi(into []V) {
	for l := uint32(0); int(l) < st.frag.NumOwned(); l++ {
		into[st.frag.Global(l)] = st.psi[l]
	}
}

// Indirections shared with live.go (kept tiny so tests can stub time).
var (
	nowFn   = timeNow
	sinceFn = timeSince
)
