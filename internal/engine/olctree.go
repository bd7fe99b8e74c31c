package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/page"
	"ipa/internal/sim"
)

// OLCIndex is a page-based B+tree mapping uint64 keys to RIDs, with
// optimistic lock coupling (OLC). Index pages (node layout in btree.go)
// live in a region and move through the same buffer pool and flush path
// as heap pages, so index updates also benefit from In-Place Appends
// ("frequently updated tables *or indices*", paper Sec. 1).
//
// The index is a non-logged structure: it is rebuilt from its table
// after restart recovery (a common recovery strategy for secondary
// structures), which keeps the WAL focused on tuple data.
//
// Concurrency: there is no tree-wide latch. Every buffer frame carries
// a version word (buffer.Frame.Version) that index writers bump before
// releasing their exclusive latch; the binding epoch in its upper bits,
// restamped whenever a frame gains or loses a page, invalidates versions
// across eviction and frame reuse.
//
// Reads descend without coupling latches: at most one short per-node
// shared latch is held at a time (Go's race detector — and the flush
// path, which copies page contents under the exclusive latch — rules
// out truly latch-free byte reads), and the hand-over-hand invariant is
// replaced by version validation. After latching a child, the descent
// re-checks the parent's version: if it changed, a concurrent split may
// have moved the key, and the descent restarts from the root (see
// descend for when the parent stays pinned meanwhile). The root pointer
// is itself versioned (rootVer), so resolving the root and validating
// the first step form one atomic unit — there is no Root()-then-descend
// window.
//
// Writers are optimistic too: Update and Delete (leaf-local by
// construction — deletion is lazy, leaves never merge) and Inserts into
// non-full leaves descend like readers and take one exclusive leaf
// latch. Only an insert that must split falls back to pessimistic
// top-down latch crabbing, holding exclusive latches just on the nodes
// that may split (ancestors are released as soon as a child with free
// space bounds the split). All modified versions are bumped before any
// latch is released, so no reader can validate a half-installed split.
//
// Interaction with the flush path: every node is read or written under
// its frame latch, and the pool's flush paths (cleaner, eviction,
// checkpoint) copy a frame under that same latch — so a node write never
// overlaps a flush of its page, and an index operation landing on a
// frame mid-flush simply waits out the copy. Flushes do not bump
// versions: they copy the logical image but never change it.
type OLCIndex struct {
	db   *DB
	st   *PageStore
	name string

	// root is the current root page id; rootVer counts root changes.
	// Readers sample rootVer, load root, pin+latch the node and
	// re-check rootVer — unchanged means the latched node is still the
	// root. Writers install a new root id, bump rootVer, then release
	// the old root's latch (which they hold during any root split).
	root    atomic.Uint64
	rootVer atomic.Uint64

	stats indexCounters
}

// Name returns the index name.
func (ix *OLCIndex) Name() string { return ix.name }

// Root returns the current root page id. Advisory: by the time the
// caller uses it the root may have changed; operations never use it
// (see the rootVer protocol above). For tests and tools.
func (ix *OLCIndex) Root() core.PageID { return core.PageID(ix.root.Load()) }

// Stats snapshots the operation and contention counters.
func (ix *OLCIndex) Stats() IndexStats { return ix.stats.snapshot() }

// rlatch takes a shared frame latch, counting the wait if contended.
func (ix *OLCIndex) rlatch(fr *buffer.Frame) {
	if !fr.TryRLatch() {
		ix.stats.latchWaits.Add(1)
		fr.RLatch()
	}
}

// latch takes an exclusive frame latch, counting the wait if contended.
func (ix *OLCIndex) latch(fr *buffer.Frame) {
	if !fr.TryLatch() {
		ix.stats.latchWaits.Add(1)
		fr.Latch()
	}
}

// restartWait records one descent restart and, every few consecutive
// restarts, yields the processor so the writer being chased can finish.
func (ix *OLCIndex) restartWait(attempt int) {
	ix.stats.restarts.Add(1)
	if attempt%4 == 3 {
		runtime.Gosched()
	}
}

// descend walks from the root to the leaf owning key and returns it
// pinned and latched — shared, or exclusive when exclusive is set (the
// leaf-local write path). The caller holds db.stateMu shared and must
// unlatch+unpin the returned frame.
//
// Validation protocol, per step: after latching the child, the
// parent's version is re-checked. A mismatch means the routing decision
// may be stale (the child may have split and the key moved right), so
// the descent restarts. For the first step the root pointer's own
// version plays the parent role.
//
// The first attempt drops the parent's pin before it fetches the child,
// so it pins one node at a time. A second pin held across the child's
// fetch would change which frame that fetch evicts, and the paper's
// golden renders pin the single-threaded buffer trace. The unpinned
// parent may then be evicted while the child is fetched, its frame
// rebound or left free; the pool stamps a fresh binding epoch whenever
// a frame loses its page, so the version check fails and that is
// caught like a split. A restarted attempt keeps each parent pinned
// until the child is latched, so eviction cannot invalidate it again:
// it finishes, or in a pool too small to hold two nodes fails with
// buffer.ErrNoFrames instead of restarting forever.
func (ix *OLCIndex) descend(w *sim.Worker, key uint64, exclusive bool) (*buffer.Frame, *node, error) {
	db := ix.db
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			ix.restartWait(attempt - 1)
		}
		coupled := attempt > 0 // keep the parent pinned across the child's fetch
		rv := ix.rootVer.Load()
		cur := core.PageID(ix.root.Load())
		var parent *buffer.Frame // unlatched; pinned only when coupled
		var parentVer uint64
		// valid reports whether the step that led to the latched node is
		// still current.
		valid := func() bool {
			if parent == nil {
				return ix.rootVer.Load() == rv
			}
			return parent.Version() == parentVer
		}
		unpinParent := func() {
			if coupled && parent != nil {
				db.pool.Unpin(w, parent, false, 0)
			}
		}
		for {
			fr, err := db.pool.Get(w, cur)
			if err != nil {
				unpinParent()
				return nil, nil, err
			}
			ix.rlatch(fr)
			if !valid() {
				fr.RUnlatch()
				db.pool.Unpin(w, fr, false, 0)
				unpinParent()
				break // restart from the root
			}
			n, err := attachNode(ix.st, fr)
			if err != nil {
				fr.RUnlatch()
				db.pool.Unpin(w, fr, false, 0)
				unpinParent()
				return nil, nil, err
			}
			if n.leaf {
				if exclusive {
					// Re-take the latch exclusively and re-validate: the
					// leaf may have split in the gap (in which case the
					// parent's version — or rootVer for a root leaf —
					// changed and the key may belong right of here).
					fr.RUnlatch()
					ix.latch(fr)
					if !valid() {
						fr.Unlatch()
						db.pool.Unpin(w, fr, false, 0)
						unpinParent()
						break // restart from the root
					}
				}
				unpinParent()
				return fr, n, nil
			}
			next := n.route(key)
			ver := fr.Version()
			fr.RUnlatch()
			unpinParent()
			if !coupled {
				db.pool.Unpin(w, fr, false, 0)
			}
			parent, parentVer = fr, ver
			cur = next
		}
	}
}

// Lookup returns the RID stored under key.
func (ix *OLCIndex) Lookup(w *sim.Worker, key uint64) (core.RID, bool, error) {
	ix.stats.lookups.Add(1)
	db := ix.db
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	fr, n, err := ix.descend(w, key, false)
	if err != nil {
		return core.RID{}, false, err
	}
	pos, found := n.leafSearch(key)
	var rid core.RID
	if found {
		rid = n.leafRID(pos)
	}
	fr.RUnlatch()
	db.pool.Unpin(w, fr, false, 0)
	return rid, found, nil
}

// Update changes the RID stored under an existing key.
func (ix *OLCIndex) Update(w *sim.Worker, key uint64, rid core.RID) error {
	ix.stats.updates.Add(1)
	db := ix.db
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	fr, n, err := ix.descend(w, key, true)
	if err != nil {
		return err
	}
	pos, found := n.leafSearch(key)
	if !found {
		fr.Unlatch()
		db.pool.Unpin(w, fr, false, 0)
		return fmt.Errorf("engine: index %q has no key %d", ix.name, key)
	}
	n.setLeaf(pos, key, rid)
	fr.BumpVersion()
	fr.Unlatch()
	return db.pool.Unpin(w, fr, true, db.log.Head())
}

// Delete removes a key (lazy deletion: leaves are never merged, which
// is adequate for the OLTP workloads where deletes are rare, and keeps
// deletes leaf-local with no crabbing).
func (ix *OLCIndex) Delete(w *sim.Worker, key uint64) (bool, error) {
	ix.stats.deletes.Add(1)
	db := ix.db
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	fr, n, err := ix.descend(w, key, true)
	if err != nil {
		return false, err
	}
	pos, found := n.leafSearch(key)
	if !found {
		fr.Unlatch()
		db.pool.Unpin(w, fr, false, 0)
		return false, nil
	}
	for i := pos; i < n.count()-1; i++ {
		n.setLeaf(i, n.leafKey(i+1), n.leafRID(i+1))
	}
	n.setCount(n.count() - 1)
	fr.BumpVersion()
	fr.Unlatch()
	return true, db.pool.Unpin(w, fr, true, db.log.Head())
}

// Insert adds key → rid. Duplicate keys are rejected. The fast path is
// optimistic (one exclusive leaf latch); a full leaf falls back to
// pessimistic top-down crabbing.
func (ix *OLCIndex) Insert(w *sim.Worker, key uint64, rid core.RID) error {
	ix.stats.inserts.Add(1)
	db := ix.db
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	fr, n, err := ix.descend(w, key, true)
	if err != nil {
		return err
	}
	pos, found := n.leafSearch(key)
	if found {
		fr.Unlatch()
		db.pool.Unpin(w, fr, false, 0)
		return fmt.Errorf("%w: %d", ErrKeyExists, key)
	}
	if n.count() < n.cap {
		insertLeafAt(n, pos, key, rid)
		fr.BumpVersion()
		fr.Unlatch()
		return db.pool.Unpin(w, fr, true, db.log.Head())
	}
	fr.Unlatch()
	db.pool.Unpin(w, fr, false, 0)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			ix.restartWait(attempt - 1)
		}
		done, err := ix.insertPessimistic(w, key, rid)
		if err != nil || done {
			return err
		}
	}
}

// heldNode is one exclusively latched, pinned node of a pessimistic
// descent.
type heldNode struct {
	fr *buffer.Frame
	n  *node
}

// insertPessimistic is the split path: descend from the root holding
// exclusive latches hand-over-hand, releasing all held ancestors
// whenever the newly latched child has free space (a split from below
// stops there, so nothing above it can change). The retained stack is
// therefore "the deepest non-full node, then full nodes down to the
// leaf" — exactly the nodes a leaf split may touch. Returns done=false
// (and no error) when the root moved between loading and latching it;
// the caller restarts.
func (ix *OLCIndex) insertPessimistic(w *sim.Worker, key uint64, rid core.RID) (done bool, err error) {
	db := ix.db
	var stack []heldNode // latched top-down; stack[0] is the shallowest
	// modified collects frames whose contents changed; their versions
	// are all bumped before any latch is released.
	var modified []*buffer.Frame
	releaseStack := func() {
		for i := len(stack) - 1; i >= 0; i-- {
			stack[i].fr.Unlatch()
			db.pool.Unpin(w, stack[i].fr, false, 0)
		}
		stack = nil
	}
	// finish bumps every modified version, then unlatches and unpins:
	// first the modified frames, dirty with the log head as recLSN, in
	// the order they were modified — the leaf, its new right sibling,
	// each split ancestor followed by the sibling it spawned, the
	// ancestor that absorbed the separator, the new root — then any
	// other held frame, clean. That is the order in which a recursive
	// insert that splits on its way back up releases its pages; an
	// Unpin may run the inline cleaner, so the order is part of the
	// single-threaded buffer trace the golden renders pin. Called on
	// success and on mid-split errors alike (modifications already made
	// must become visible either way).
	finish := func() error {
		for _, fr := range modified {
			fr.BumpVersion()
		}
		head := db.log.Head()
		var unpinErr error
		release := func(fr *buffer.Frame, dirty bool) {
			fr.Unlatch()
			if err := db.pool.Unpin(w, fr, dirty, head); unpinErr == nil {
				unpinErr = err
			}
		}
		for _, fr := range modified {
			release(fr, true)
		}
		for _, h := range stack {
			if !slices.Contains(modified, h.fr) {
				release(h.fr, false)
			}
		}
		stack = nil
		return unpinErr
	}

	rv := ix.rootVer.Load()
	rootID := core.PageID(ix.root.Load())
	fr, err := db.pool.Get(w, rootID)
	if err != nil {
		return false, err
	}
	ix.latch(fr)
	if ix.rootVer.Load() != rv {
		// The root moved before we latched it; retry from the new root.
		fr.Unlatch()
		db.pool.Unpin(w, fr, false, 0)
		return false, nil
	}
	n, err := attachNode(ix.st, fr)
	if err != nil {
		fr.Unlatch()
		db.pool.Unpin(w, fr, false, 0)
		return false, err
	}
	stack = append(stack, heldNode{fr, n})
	// From here on the root (and later the whole retained path) is
	// exclusively latched: no concurrent writer can change it, so the
	// descent needs no further validation.
	for !n.leaf {
		childID := n.route(key)
		cfr, err := db.pool.Get(w, childID)
		if err != nil {
			releaseStack()
			return false, err
		}
		ix.latch(cfr)
		cn, err := attachNode(ix.st, cfr)
		if err != nil {
			cfr.Unlatch()
			db.pool.Unpin(w, cfr, false, 0)
			releaseStack()
			return false, err
		}
		if cn.count() < cn.cap {
			// The child bounds any split from below: ancestors are safe.
			releaseStack()
		}
		stack = append(stack, heldNode{cfr, cn})
		n = cn
	}

	leaf := stack[len(stack)-1]
	pos, found := leaf.n.leafSearch(key)
	if found {
		releaseStack()
		return true, fmt.Errorf("%w: %d", ErrKeyExists, key)
	}
	if leaf.n.count() < leaf.n.cap {
		// Another splitter made room while we walked down.
		insertLeafAt(leaf.n, pos, key, rid)
		modified = append(modified, leaf.fr)
		return true, finish()
	}

	// Split the leaf. New pages come back pinned from newPage and are
	// latched immediately: the moment the left sibling's NextPage points
	// at them, chain walkers may try to latch them.
	rfr, rpg, err := db.newPage(w, ix.st, 0, page.FlagIndex|page.FlagLeaf)
	if err != nil {
		releaseStack()
		return true, err
	}
	ix.latch(rfr)
	rn, err := attachNode(ix.st, rfr)
	if err != nil {
		rfr.Unlatch()
		db.pool.Unpin(w, rfr, false, 0)
		releaseStack()
		return true, err
	}
	ln := leaf.n
	mid := ln.count() / 2
	moved := ln.count() - mid
	for i := 0; i < moved; i++ {
		rn.setLeaf(i, ln.leafKey(mid+i), ln.leafRID(mid+i))
	}
	rn.setCount(moved)
	ln.setCount(mid)
	rn.pg.SetNextPage(ln.pg.NextPage())
	ln.pg.SetNextPage(rpg.ID())
	sep := rn.leafKey(0)
	if key >= sep {
		p, _ := rn.leafSearch(key)
		insertLeafAt(rn, p, key, rid)
	} else {
		p, _ := ln.leafSearch(key)
		insertLeafAt(ln, p, key, rid)
	}
	stack = append(stack, heldNode{rfr, rn})
	modified = append(modified, leaf.fr, rfr)
	carryKey, carryChild := sep, rpg.ID()

	// Install the separator, splitting full internal nodes on the way
	// up. The loop walks the retained stack above the leaf (and its new
	// sibling, which sits on top and takes no separator).
	for i := len(stack) - 3; i >= 0; i-- {
		h := stack[i]
		if h.n.count() < h.n.cap {
			insertIntAt(h.n, carryKey, carryChild)
			modified = append(modified, h.fr)
			carryChild = core.InvalidPageID
			break
		}
		ifr, ipg, err := db.newPage(w, ix.st, 0, page.FlagIndex)
		if err != nil {
			return true, finish() // splits so far stay installed
		}
		ix.latch(ifr)
		in, err := attachNode(ix.st, ifr)
		if err != nil {
			ifr.Unlatch()
			db.pool.Unpin(w, ifr, false, 0)
			return true, finish()
		}
		m := h.n.count() / 2
		upKey := h.n.intKey(m)
		in.setChild0(h.n.intChild(m))
		cnt := 0
		for j := m + 1; j < h.n.count(); j++ {
			in.setInt(cnt, h.n.intKey(j), h.n.intChild(j))
			cnt++
		}
		in.setCount(cnt)
		h.n.setCount(m)
		if carryKey >= upKey {
			insertIntAt(in, carryKey, carryChild)
		} else {
			insertIntAt(h.n, carryKey, carryChild)
		}
		stack = append(stack, heldNode{ifr, in})
		modified = append(modified, h.fr, ifr)
		carryKey, carryChild = upKey, ipg.ID()
	}
	if carryChild != core.InvalidPageID {
		// The carry consumed the whole retained stack, so the node that
		// split last was the shallowest retained one — which by the
		// crabbing invariant can only be the root (any other retained
		// top had free space when latched, and has been exclusively
		// ours since): grow the tree by one level. This covers both a
		// full root leaf (the upward loop never ran) and a full
		// internal root.
		nfr, npg, err := db.newPage(w, ix.st, 0, page.FlagIndex)
		if err != nil {
			return true, finish()
		}
		ix.latch(nfr)
		nn, err := attachNode(ix.st, nfr)
		if err != nil {
			nfr.Unlatch()
			db.pool.Unpin(w, nfr, false, 0)
			return true, finish()
		}
		nn.setChild0(stack[0].fr.ID)
		nn.setInt(0, carryKey, carryChild)
		nn.setCount(1)
		stack = append(stack, heldNode{nfr, nn})
		modified = append(modified, nfr)
		// Publish the new root, then bump rootVer: a reader that still
		// descends from the old root will fail its version check (the
		// old root's version bumps in finish before any latch drops).
		ix.root.Store(uint64(npg.ID()))
		ix.rootVer.Add(1)
	}
	return true, finish()
}

// Range visits keys in [lo, hi] in order until fn returns false. Each
// leaf's entries are buffered under its shared latch and the callback
// runs with no latch held, so it may perform table reads. Keys inserted
// concurrently may or may not be seen.
func (ix *OLCIndex) Range(w *sim.Worker, lo, hi uint64, fn func(key uint64, rid core.RID) bool) error {
	ix.stats.scans.Add(1)
	db := ix.db
	db.stateMu.RLock()
	fr, n, err := ix.descend(w, lo, false)
	if err != nil {
		db.stateMu.RUnlock()
		return err
	}
	type kv struct {
		k uint64
		r core.RID
	}
	var items []kv
	for {
		// fr is pinned and share-latched here, stateMu held shared.
		items = items[:0]
		done := false
		start, _ := n.leafSearch(lo)
		for i := start; i < n.count(); i++ {
			k := n.leafKey(i)
			if k > hi {
				done = true
				break
			}
			items = append(items, kv{k, n.leafRID(i)})
		}
		next := n.pg.NextPage()
		fr.RUnlatch()
		db.pool.Unpin(w, fr, false, 0)
		db.stateMu.RUnlock()
		for _, it := range items {
			if !fn(it.k, it.r) {
				return nil
			}
		}
		if done || next == core.InvalidPageID {
			return nil
		}
		db.stateMu.RLock()
		fr, err = db.pool.Get(w, next)
		if err != nil {
			db.stateMu.RUnlock()
			return err
		}
		ix.rlatch(fr)
		n, err = attachNode(ix.st, fr)
		if err != nil {
			fr.RUnlatch()
			db.pool.Unpin(w, fr, false, 0)
			db.stateMu.RUnlock()
			return err
		}
	}
}
