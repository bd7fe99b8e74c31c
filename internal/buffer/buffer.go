// Package buffer implements the database buffer pool: frames with
// pin/unpin, CLOCK replacement, dirty tracking and a page-cleaner
// emulation with Shore-MT's *eager* eviction strategy (flush when the
// dirty fraction passes a threshold, 12.5% hardcoded in Shore-MT) or the
// paper's *non-eager* alternative (Sec. 8.4, Tables 9 vs 10).
//
// The pool is where the paper's approach plugs in: every frame carries,
// next to the current logical image, the logical image as of the last
// flush. On eviction the storage manager diffs the two to decide between
// an In-Place Append (write_delta) and an out-of-place page write.
//
// Concurrency model. The pool is split into Config.Shards independent
// shards, frames partitioned by hash(PageID). Each shard owns its own
// mutex, page table, frame slice, CLOCK hand, dirty counter and stats
// cell, so pool operations on pages in different shards never contend —
// the same padded-shard pattern as the flash array's per-chip state. A
// shard mutex guards only that shard's frame table and frame *state*
// (pin counts, dirty flags, CLOCK metadata); page *contents* (Data,
// Flushed, UsedSlots, New) are guarded by a per-frame reader/writer
// latch. All store I/O — fetches on a miss, flushes on eviction,
// cleaning — runs outside the shard mutexes, so fetch/flush on different
// pages (and different regions) proceed in parallel. The latch order is
// strict: a frame latch is never acquired while a shard mutex is held, a
// shard mutex may be acquired while a latch is held, and no two shard
// mutexes are ever held at once.
//
// Determinism. Shards=1 (the default) degenerates to a single global
// CLOCK whose eviction order is bit-identical to the historical
// unsharded pool. The paper's experiments depend on that: eviction order
// decides which flushes happen and when, and therefore the update-size
// distributions of Tables 1/9/10/11. Multi-shard pools are for the
// concurrency benchmarks and production-style deployments, where
// shard-local CLOCK ordering is an accepted (and documented) deviation.
package buffer

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"ipa/internal/core"
	"ipa/internal/sim"
)

// Errors of the buffer pool.
var (
	ErrNoFrames = errors.New("buffer: all frames pinned")
	ErrPinned   = errors.New("buffer: page still pinned")
)

// Store is the storage manager the pool delegates page movement to.
type Store interface {
	// Fetch reads the logical image of a page into buf (applying any
	// delta-records) and returns the number of delta-record slots already
	// used on the physical page.
	Fetch(w *sim.Worker, id core.PageID, buf []byte) (usedSlots int, err error)
	// Flush persists a frame, choosing between write_delta and an
	// out-of-place write. On success it must update fr.Flushed,
	// fr.UsedSlots and clear fr.New.
	Flush(w *sim.Worker, fr *Frame) error
}

// Frame is one buffer slot.
type Frame struct {
	ID   core.PageID
	Data []byte // current logical image
	// Flushed is the logical image as of the last flush (nil for a page
	// that has never been written to storage). Diffing Data against
	// Flushed yields the exact <value,offset> pairs of the delta-record.
	Flushed []byte
	// UsedSlots is N_E in the paper: delta-records already programmed on
	// the physical page.
	UsedSlots int
	// New marks a freshly allocated page with no physical copy yet; its
	// first write is always out-of-place (IPA is not applicable to newly
	// allocated pages).
	New    bool
	Dirty  bool
	RecLSN core.LSN // LSN that first dirtied the frame (for checkpoints)

	// latch guards the page contents (Data, Flushed, UsedSlots, New)
	// against concurrent access: engine readers hold it shared, engine
	// mutators and the flush paths hold it exclusively. Pin the frame
	// before latching; never latch while holding a shard mutex.
	latch sync.RWMutex

	// ver is the frame's optimistic-lock-coupling version word, stored
	// beside the pin so the two hot fields share a frame, not a shard.
	// The upper 48 bits hold a pool-wide binding epoch stamped whenever
	// the frame is bound to a page id and again whenever it loses one
	// (unbindLocked), so a version read against one binding can never
	// validate against another, nor against a frame that sits free
	// after its page moved elsewhere; the low 16 bits count in-place
	// modifications, bumped by content mutators *before* they release
	// their exclusive latch. Flushes leave ver alone: they copy
	// the logical image out but do not change it.
	ver atomic.Uint64

	// home is the shard whose frame slice (and mutex) currently owns this
	// frame. It only changes while the frame is free and unpinned, under
	// the owning shard's mutex (see stealFrameLocked); holders of a pin
	// may read it directly, everyone else goes through lockHome.
	home atomic.Pointer[poolShard]

	pin int
	ref bool

	// Miss-fetch protocol: the loader sets loading and fetches outside
	// the shard mutex; concurrent getters pin the frame and wait on
	// loadDone.
	loading  bool
	loadDone chan struct{}
	loadErr  error
}

// Latch acquires the frame's content latch exclusively (for mutation).
func (fr *Frame) Latch() { fr.latch.Lock() }

// Unlatch releases an exclusive latch.
func (fr *Frame) Unlatch() { fr.latch.Unlock() }

// RLatch acquires the frame's content latch shared (for reading).
func (fr *Frame) RLatch() { fr.latch.RLock() }

// RUnlatch releases a shared latch.
func (fr *Frame) RUnlatch() { fr.latch.RUnlock() }

// TryLatch attempts the exclusive content latch without blocking. OLC
// writers use it to count latch waits before falling back to Latch.
func (fr *Frame) TryLatch() bool { return fr.latch.TryLock() }

// TryRLatch attempts the shared content latch without blocking.
func (fr *Frame) TryRLatch() bool { return fr.latch.TryRLock() }

// Version returns the frame's current OLC version word. Readers sample
// it under a shared latch (or with the frame pinned) and re-check it
// after moving on to decide whether what they read is still current.
func (fr *Frame) Version() uint64 { return fr.ver.Load() }

// BumpVersion marks the frame's contents as changed. Mutators call it
// while still holding the exclusive latch, so a reader that validates
// an old version is guaranteed to observe the bump.
func (fr *Frame) BumpVersion() { fr.ver.Add(1) }

// stampVersion installs a fresh binding epoch when the frame is bound
// to a (new) page id or loses its page, invalidating every version
// sampled against the previous binding.
func (fr *Frame) stampVersion(epoch uint64) { fr.ver.Store(epoch << 16) }

// Config sizes the pool and its cleaning strategy.
type Config struct {
	Frames   int
	PageSize int

	// Shards splits the pool into independent partitions — each with its
	// own mutex, page table, CLOCK hand and dirty accounting — routed by
	// hash(PageID). Zero or one selects the single-shard pool, whose
	// global CLOCK eviction order is bit-identical to the historical
	// implementation (what every paper experiment uses). Values are
	// rounded up to the next power of two and capped so every shard owns
	// at least one frame.
	Shards int

	// DirtyThreshold is the dirty-page fraction above which Unpin invokes
	// the cleaner, emulating Shore-MT's eager background flushing. Zero
	// selects the Shore-MT default of 12.5%. Non-eager experiments set it
	// to 0.75.
	DirtyThreshold float64
	// CleanBatch is how many pages one cleaner pass flushes. Zero selects
	// max(8, Frames/64).
	CleanBatch int
	// Cleaner is the simulated worker background flushes are charged to,
	// so cleaning occupies flash chips without blocking the transaction
	// that triggered it (steal/no-force). Nil charges the calling worker.
	Cleaner *sim.Worker
	// CleanNotify, when set, replaces the inline CleanerPass that Unpin
	// runs on crossing the dirty threshold: the pool calls it (without
	// holding any lock) and the owner is expected to run CleanerPass from
	// its own maintenance thread. This takes cleaning off the transaction
	// path entirely.
	CleanNotify func()
}

func (c Config) dirtyThreshold() float64 {
	if c.DirtyThreshold <= 0 {
		return 0.125
	}
	return c.DirtyThreshold
}

func (c Config) cleanBatch() int {
	if c.CleanBatch > 0 {
		return c.CleanBatch
	}
	b := c.Frames / 64
	if b < 8 {
		b = 8
	}
	return b
}

// shardCount normalises Config.Shards: at least one, a power of two (so
// routing is a multiply and a shift, no modulo), and never more than
// Frames so every shard owns at least one frame.
func (c Config) shardCount() int {
	n := c.Shards
	if n < 1 {
		n = 1
	}
	if n > c.Frames {
		n = c.Frames
	}
	p := 1
	for p < n {
		p <<= 1
	}
	for p > c.Frames && p > 1 {
		p >>= 1
	}
	return p
}

// Stats counts pool activity.
type Stats struct {
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	EvictionFlush  uint64 // dirty evictions (flush on the critical path)
	CleanerFlushes uint64 // background cleaner flushes
}

// statsCell is one shard's counters. All fields are atomics so Stats()
// aggregates without taking any shard mutex.
type statsCell struct {
	hits           atomic.Uint64
	misses         atomic.Uint64
	evictions      atomic.Uint64
	evictionFlush  atomic.Uint64
	cleanerFlushes atomic.Uint64
}

// dec undoes one Add(1) on an atomic counter (two's-complement add).
func dec(c *atomic.Uint64) { c.Add(^uint64(0)) }

// poolShard is one partition of the pool: a subset of the frames with
// its own mutex, page table, CLOCK hand, dirty counter and stats cell.
// Operations on pages routed to different shards never contend.
type poolShard struct {
	mu     sync.Mutex
	frames []*Frame
	table  map[core.PageID]*Frame
	hand   int

	// dirty and stats are atomics so DirtyFraction/Stats never lock; the
	// mutating paths already hold mu when they update them.
	dirty atomic.Int64
	stats statsCell

	// Pad shards apart so two shards' mutexes and counters never share a
	// cache line (the shards live contiguously in Pool.shards).
	_ [64]byte
}

// Pool is the buffer pool. All methods are safe for concurrent use.
type Pool struct {
	cfg   Config
	store Store

	shards     []poolShard
	shardShift uint // 64 - log2(len(shards)); fibonacci-hash routing
	nframes    int  // total frames across shards (fixed at construction)

	// cleanGate admits one cleaner pass at a time; triggers arriving
	// while a pass runs are dropped (the running pass covers them).
	// cleanNext (guarded by cleanGate) rotates the shard a pass starts
	// at, so cleaning pressure spreads round-robin across shards.
	cleanGate sync.Mutex
	cleanNext int

	// verEpoch issues frame-binding epochs for the OLC version words
	// (see Frame.ver).
	verEpoch atomic.Uint64
}

// New creates a pool with cfg.Frames empty frames.
func New(cfg Config, store Store) (*Pool, error) {
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("buffer: %d frames", cfg.Frames)
	}
	if cfg.PageSize < 64 {
		return nil, fmt.Errorf("buffer: page size %d", cfg.PageSize)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("buffer: %d shards", cfg.Shards)
	}
	n := cfg.shardCount()
	p := &Pool{
		cfg:        cfg,
		store:      store,
		shards:     make([]poolShard, n),
		shardShift: uint(64 - bits.TrailingZeros(uint(n))),
		nframes:    cfg.Frames,
	}
	base, rem := cfg.Frames/n, cfg.Frames%n
	for i := range p.shards {
		s := &p.shards[i]
		count := base
		if i < rem {
			count++
		}
		s.frames = make([]*Frame, count)
		s.table = make(map[core.PageID]*Frame, count)
		for j := range s.frames {
			fr := &Frame{Data: make([]byte, cfg.PageSize)}
			fr.home.Store(s)
			s.frames[j] = fr
		}
	}
	return p, nil
}

// Size returns the number of frames.
func (p *Pool) Size() int { return p.nframes }

// Shards returns the effective shard count (after normalisation).
func (p *Pool) Shards() int { return len(p.shards) }

// shardOf routes a page id to its shard (fibonacci hashing; shift 64 for
// a single shard maps everything to shard 0).
func (p *Pool) shardOf(id core.PageID) *poolShard {
	return &p.shards[(uint64(id)*0x9E3779B97F4A7C15)>>p.shardShift]
}

// lockHome locks the shard currently owning fr and returns it. The
// re-check loop covers the (steal) window where a free frame migrates
// between shards while we were waiting on the old shard's mutex.
func (p *Pool) lockHome(fr *Frame) *poolShard {
	for {
		s := fr.home.Load()
		s.mu.Lock()
		if fr.home.Load() == s {
			return s
		}
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the counters. Lock-free: per-shard cells
// are atomics, so sampling never stalls pool traffic.
func (p *Pool) Stats() Stats {
	var out Stats
	for i := range p.shards {
		c := &p.shards[i].stats
		out.Hits += c.hits.Load()
		out.Misses += c.misses.Load()
		out.Evictions += c.evictions.Load()
		out.EvictionFlush += c.evictionFlush.Load()
		out.CleanerFlushes += c.cleanerFlushes.Load()
	}
	return out
}

// DirtyFraction is the fraction of frames currently dirty. Lock-free.
func (p *Pool) DirtyFraction() float64 {
	var dirty int64
	for i := range p.shards {
		dirty += p.shards[i].dirty.Load()
	}
	return float64(dirty) / float64(p.nframes)
}

// Get pins the page, fetching it from the store on a miss. The fetch
// happens outside the shard mutex; concurrent getters of the same page
// wait for the in-flight fetch instead of issuing their own.
func (p *Pool) Get(w *sim.Worker, id core.PageID) (*Frame, error) {
	s := p.shardOf(id)
	for {
		s.mu.Lock()
		if fr, ok := s.table[id]; ok {
			fr.pin++
			fr.ref = true
			s.stats.hits.Add(1)
			loading, done := fr.loading, fr.loadDone
			s.mu.Unlock()
			if loading {
				<-done
				s.mu.Lock()
				if err := fr.loadErr; err != nil {
					fr.pin--
					s.mu.Unlock()
					return nil, err
				}
				s.mu.Unlock()
			}
			return fr, nil
		}
		s.stats.misses.Add(1)
		fr, err := p.acquireVictimLocked(s, w)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if _, raced := s.table[id]; raced {
			// Someone loaded the page while we were evicting: leave the
			// reclaimed frame free and retry as a hit.
			dec(&s.stats.misses)
			s.mu.Unlock()
			continue
		}
		fr.ID = id
		fr.pin = 1
		fr.ref = true
		fr.New = false
		fr.stampVersion(p.verEpoch.Add(1))
		// Flushed must read nil while the load is in flight (it marks "no
		// flushed image"), but its capacity is a full page — keep it for
		// the post-load copy instead of allocating a fresh one per miss.
		flushedBuf := fr.Flushed[:0]
		fr.Flushed = nil
		fr.UsedSlots = 0
		fr.RecLSN = 0
		fr.loading = true
		fr.loadDone = make(chan struct{})
		fr.loadErr = nil
		s.table[id] = fr
		s.mu.Unlock()

		used, err := p.store.Fetch(w, id, fr.Data)

		s.mu.Lock()
		fr.loading = false
		if err != nil {
			fr.loadErr = err
			p.unbindLocked(s, fr)
			fr.pin-- // our pin; waiters drop theirs when they see loadErr
			close(fr.loadDone)
			s.mu.Unlock()
			return nil, err
		}
		fr.UsedSlots = used
		fr.Flushed = append(flushedBuf, fr.Data...)
		close(fr.loadDone)
		s.mu.Unlock()
		return fr, nil
	}
}

// GetNew pins a frame for a freshly allocated page that has no physical
// copy yet. The caller formats fr.Data; the first flush will be an
// out-of-place write.
func (p *Pool) GetNew(w *sim.Worker, id core.PageID) (*Frame, error) {
	s := p.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if fr, ok := s.table[id]; ok {
		fr.pin++
		fr.ref = true
		return fr, nil
	}
	fr, err := p.acquireVictimLocked(s, w)
	if err != nil {
		return nil, err
	}
	if exist, raced := s.table[id]; raced {
		// acquireVictimLocked may drop s.mu (dirty-victim flush, cross-
		// shard steal); someone may have installed the page meanwhile.
		// Return that frame and leave the reclaimed one free, instead of
		// overwriting the table entry and orphaning it.
		exist.pin++
		exist.ref = true
		return exist, nil
	}
	fr.ID = id
	fr.pin = 1
	fr.ref = true
	fr.New = true
	fr.stampVersion(p.verEpoch.Add(1))
	fr.Dirty = false
	fr.Flushed = nil
	fr.UsedSlots = 0
	fr.RecLSN = 0
	clear(fr.Data)
	s.table[id] = fr
	return fr, nil
}

// Unpin releases one pin. If dirty, recLSN records the earliest LSN that
// modified the page since it was last clean (ARIES recLSN). When the
// dirty fraction exceeds the threshold the cleaner flushes a batch.
func (p *Pool) Unpin(w *sim.Worker, fr *Frame, dirty bool, recLSN core.LSN) error {
	s := fr.home.Load() // stable: the caller holds a pin
	s.mu.Lock()
	if fr.pin <= 0 {
		s.mu.Unlock()
		return fmt.Errorf("buffer: unpin of unpinned page %d", fr.ID)
	}
	fr.pin--
	if dirty {
		if !fr.Dirty {
			fr.Dirty = true
			fr.RecLSN = recLSN
			s.dirty.Add(1)
		}
	}
	s.mu.Unlock()
	if p.DirtyFraction() > p.cfg.dirtyThreshold() {
		if p.cfg.CleanNotify != nil {
			p.cfg.CleanNotify()
			return nil
		}
		return p.CleanerPass(w)
	}
	return nil
}

// claimLocked marks a dirty, unpinned frame clean and flush-pins it so
// the caller can flush it outside the shard mutex. A writer that
// re-dirties the frame during the flush simply marks it dirty again —
// nothing is lost, the frame is flushed once more later.
func (s *poolShard) claimLocked(fr *Frame) {
	fr.Dirty = false
	fr.RecLSN = 0
	s.dirty.Add(-1)
	fr.pin++
}

// flushClaimed flushes a frame claimed by claimLocked, without any shard
// mutex held, taking the content latch for the duration of the store
// I/O. On error the dirty state is restored.
func (p *Pool) flushClaimed(w *sim.Worker, fr *Frame, recLSN core.LSN) error {
	fr.latch.Lock()
	err := p.store.Flush(w, fr)
	fr.latch.Unlock()
	s := fr.home.Load() // stable: the flush pin prevents stealing
	s.mu.Lock()
	fr.pin--
	if err != nil && !fr.Dirty {
		fr.Dirty = true
		fr.RecLSN = recLSN
		s.dirty.Add(1)
	}
	s.mu.Unlock()
	return err
}

// CleanerPass flushes up to one batch of dirty unpinned frames, charged
// to the configured cleaner worker (or w if none). Only one pass runs at
// a time; triggers arriving during a pass return immediately. Shards are
// walked round-robin (the start shard rotates between passes) with a
// per-shard claim quota, so one hot shard cannot monopolise the batch.
func (p *Pool) CleanerPass(w *sim.Worker) error {
	if !p.cleanGate.TryLock() {
		return nil
	}
	defer p.cleanGate.Unlock()
	cw := p.cfg.Cleaner
	if cw == nil {
		cw = w
	} else if w != nil {
		cw.SetNow(w.Now()) // the cleaner acts concurrently with the trigger
	}
	type claimed struct {
		fr     *Frame
		recLSN core.LSN
	}
	var batch []claimed
	nshards := len(p.shards)
	budget := p.cfg.cleanBatch()
	perShard := budget / nshards
	if perShard < 1 {
		perShard = 1
	}
	start := p.cleanNext % nshards
	p.cleanNext++
	for k := 0; k < nshards && budget > 0; k++ {
		s := &p.shards[(start+k)%nshards]
		quota := perShard
		if quota > budget {
			quota = budget
		}
		s.mu.Lock()
		n := len(s.frames)
		for i := 0; i < n && quota > 0; i++ {
			fr := s.frames[(s.hand+i)%n]
			if !fr.Dirty || fr.pin > 0 || fr.loading {
				continue
			}
			batch = append(batch, claimed{fr, fr.RecLSN})
			s.claimLocked(fr)
			quota--
			budget--
		}
		s.mu.Unlock()
	}
	for _, c := range batch {
		if err := p.flushClaimed(cw, c.fr, c.recLSN); err != nil {
			return err
		}
		c.fr.home.Load().stats.cleanerFlushes.Add(1)
	}
	return nil
}

// acquireVictimLocked returns a free frame for shard s, called and
// returning with s.mu held (it may drop the mutex while flushing or
// stealing). When the local CLOCK exhausts — every frame pinned or
// loading — it steals an unpinned frame from another shard before
// surfacing ErrNoFrames, so a working set skewed onto one shard cannot
// fail while the rest of the pool sits idle.
func (p *Pool) acquireVictimLocked(s *poolShard, w *sim.Worker) (*Frame, error) {
	fr, err := p.victimLocked(s, w)
	if err == nil || !errors.Is(err, ErrNoFrames) || len(p.shards) == 1 {
		return fr, err
	}
	s.mu.Unlock()
	stolen := p.stealFrame(s)
	s.mu.Lock()
	if stolen != nil {
		s.frames = append(s.frames, stolen)
		return stolen, nil
	}
	// Nothing stealable anywhere; one last local attempt — frames may
	// have been unpinned while we searched the other shards.
	return p.victimLocked(s, w)
}

// stealFrame takes a clean, unpinned frame from some other shard,
// evicting its page if it holds one, and re-homes it to the requester.
// Shards with a single frame left are skipped so no shard ever empties.
// At most one shard mutex is held at a time (never the requester's),
// keeping the pool deadlock-free by construction.
func (p *Pool) stealFrame(to *poolShard) *Frame {
	for i := range p.shards {
		s := &p.shards[i]
		if s == to {
			continue
		}
		s.mu.Lock()
		if len(s.frames) <= 1 {
			s.mu.Unlock()
			continue
		}
		for j, fr := range s.frames {
			if fr.pin > 0 || fr.loading || fr.Dirty {
				continue
			}
			if fr.ID != core.InvalidPageID {
				p.unbindLocked(s, fr)
				s.stats.evictions.Add(1)
			}
			fr.New = false
			fr.Flushed = nil
			fr.ref = false
			// Re-home before the frame leaves this shard's critical
			// section so lockHome observers retry against the new owner.
			fr.home.Store(to)
			s.removeFrameLocked(j)
			s.mu.Unlock()
			return fr
		}
		s.mu.Unlock()
	}
	return nil
}

// removeFrameLocked removes s.frames[i] preserving CLOCK order, fixing
// the hand so the sweep continues from the same logical position.
func (s *poolShard) removeFrameLocked(i int) {
	copy(s.frames[i:], s.frames[i+1:])
	s.frames[len(s.frames)-1] = nil
	s.frames = s.frames[:len(s.frames)-1]
	if s.hand > i {
		s.hand--
	}
	if s.hand >= len(s.frames) {
		s.hand = 0
	}
}

// victimLocked returns a free, unpinned frame not present in the shard's
// page table, evicting (and flushing) as needed using the CLOCK policy.
// It is called with s.mu held and returns with s.mu held, but may
// release the mutex while flushing a dirty victim (during which the
// shard's frame slice can grow or shrink via stealing — the loop
// re-reads its bounds).
func (p *Pool) victimLocked(s *poolShard, w *sim.Worker) (*Frame, error) {
	n := len(s.frames)
	for round := 0; round < 4*n+2; round++ {
		if n != len(s.frames) {
			n = len(s.frames)
			if n == 0 {
				break
			}
		}
		if s.hand >= n {
			s.hand = 0
		}
		fr := s.frames[s.hand]
		s.hand = (s.hand + 1) % n
		if fr.pin > 0 || fr.loading {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		if fr.ID == core.InvalidPageID {
			return fr, nil
		}
		if !fr.Dirty {
			p.unbindLocked(s, fr)
			s.stats.evictions.Add(1)
			return fr, nil
		}
		// Dirty victim: flush it outside the shard mutex, then re-check —
		// another goroutine may have pinned it meanwhile, in which case
		// the CLOCK hand keeps searching. Unlike the cleaner/checkpoint
		// paths (flushClaimed), the claim pin is dropped here, under
		// s.mu, *after* the re-lock: holding it across the unlocked
		// window keeps the frame anchored to this shard — stealFrame
		// skips pinned frames and home never changes while pinned — so
		// the frame cannot end up owned by two shards at once and the
		// re-check below reads state guarded by the right mutex.
		recLSN := fr.RecLSN
		s.claimLocked(fr)
		s.mu.Unlock()
		fr.latch.Lock()
		err := p.store.Flush(w, fr)
		fr.latch.Unlock()
		s.mu.Lock()
		fr.pin--
		if err != nil {
			if !fr.Dirty {
				fr.Dirty = true
				fr.RecLSN = recLSN
				s.dirty.Add(1)
			}
			return nil, err
		}
		s.stats.evictionFlush.Add(1)
		if fr.pin == 0 && !fr.Dirty && !fr.loading {
			p.unbindLocked(s, fr)
			s.stats.evictions.Add(1)
			return fr, nil
		}
	}
	return nil, ErrNoFrames
}

// FlushAll writes every dirty frame (checkpoint support). Pinned dirty
// frames are an error. Within each shard the scan resumes from the frame
// after the last flush instead of restarting at index 0, wrapping until
// a full sweep finds nothing dirty — O(frames + flushes) per quiescent
// checkpoint instead of the historical O(frames²).
func (p *Pool) FlushAll(w *sim.Worker) error {
	for i := range p.shards {
		if err := p.flushAllShard(&p.shards[i], w); err != nil {
			return err
		}
	}
	return nil
}

func (p *Pool) flushAllShard(s *poolShard, w *sim.Worker) error {
	pos := 0
	for {
		var fr *Frame
		var recLSN core.LSN
		s.mu.Lock()
		n := len(s.frames)
		if n == 0 {
			s.mu.Unlock()
			return nil
		}
		if pos >= n {
			pos = 0
		}
		for scanned := 0; scanned < n; scanned++ {
			f := s.frames[(pos+scanned)%n]
			if !f.Dirty {
				continue
			}
			if f.pin > 0 {
				s.mu.Unlock()
				return fmt.Errorf("%w: page %d", ErrPinned, f.ID)
			}
			fr, recLSN = f, f.RecLSN
			pos = (pos + scanned + 1) % n // resume after the claimed frame
			break
		}
		if fr == nil {
			s.mu.Unlock()
			return nil
		}
		s.claimLocked(fr)
		s.mu.Unlock()
		if err := p.flushClaimed(w, fr, recLSN); err != nil {
			return err
		}
	}
}

// FlushOldest flushes up to n dirty unpinned frames with the smallest
// RecLSN — the pages holding back log truncation. Candidates are
// collected in one sweep across all shards and merge-sorted, rather than
// rescanning the whole pool under a lock for every flush; each is
// revalidated at claim time since the pool moves on while flushes run.
func (p *Pool) FlushOldest(w *sim.Worker, n int) (int, error) {
	type cand struct {
		fr     *Frame
		recLSN core.LSN
	}
	var total int64
	for i := range p.shards {
		total += p.shards[i].dirty.Load()
	}
	if total < 0 {
		total = 0
	}
	cands := make([]cand, 0, total)
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for _, fr := range s.frames {
			if fr.Dirty && fr.pin == 0 && !fr.loading {
				cands = append(cands, cand{fr, fr.RecLSN})
			}
		}
		s.mu.Unlock()
	}
	// Stable sort: ties keep shard-then-frame order, matching the old
	// repeated-scan selection exactly in the single-shard case.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].recLSN < cands[j].recLSN })
	flushed := 0
	for _, c := range cands {
		if flushed >= n {
			break
		}
		fr := c.fr
		s := p.lockHome(fr)
		if !fr.Dirty || fr.pin > 0 || fr.loading {
			s.mu.Unlock()
			continue // flushed, reloaded, pinned or stolen since the snapshot
		}
		recLSN := fr.RecLSN
		s.claimLocked(fr)
		s.mu.Unlock()
		if err := p.flushClaimed(w, fr, recLSN); err != nil {
			return flushed, err
		}
		flushed++
	}
	return flushed, nil
}

// DirtyPages snapshots the dirty-page table (page → recLSN) for a fuzzy
// checkpoint, sweeping the shards one at a time.
func (p *Pool) DirtyPages() map[core.PageID]core.LSN {
	var total int64
	for i := range p.shards {
		total += p.shards[i].dirty.Load()
	}
	if total < 0 {
		total = 0
	}
	dpt := make(map[core.PageID]core.LSN, total)
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for _, fr := range s.frames {
			if fr.Dirty {
				dpt[fr.ID] = fr.RecLSN
			}
		}
		s.mu.Unlock()
	}
	return dpt
}

// OldestRecLSN returns the smallest recLSN across dirty frames, or 0 when
// nothing is dirty — the page-side bound for log truncation. Per-shard
// minima are aggregated one shard at a time.
func (p *Pool) OldestRecLSN() core.LSN {
	var min core.LSN
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for _, fr := range s.frames {
			if fr.Dirty && (min == 0 || fr.RecLSN < min) {
				min = fr.RecLSN
			}
		}
		s.mu.Unlock()
	}
	return min
}

// Drop removes an unpinned page from the pool without flushing (used
// when a page is deallocated). Dropping an absent page is a no-op.
func (p *Pool) Drop(id core.PageID) error {
	s := p.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, ok := s.table[id]
	if !ok {
		return nil
	}
	if fr.pin > 0 {
		return fmt.Errorf("%w: page %d", ErrPinned, id)
	}
	if fr.Dirty {
		fr.Dirty = false
		s.dirty.Add(-1)
	}
	p.unbindLocked(s, fr)
	fr.New = false
	fr.Flushed = nil
	return nil
}

// unbindLocked removes fr's page from shard s's table and stamps a fresh
// binding epoch, called with s.mu held. Every path that takes a page
// out of a frame goes through it, including those that leave the frame
// free (a victim the raced miss path of Get/GetNew gives back, a stolen
// frame, a dropped page): an OLC reader that sampled the old version
// and unpinned the frame must fail validation even though no rebind
// follows, since the page may meanwhile be reloaded into another frame
// and changed there.
func (p *Pool) unbindLocked(s *poolShard, fr *Frame) {
	delete(s.table, fr.ID)
	fr.ID = core.InvalidPageID
	fr.stampVersion(p.verEpoch.Add(1))
}

// Contains reports whether the page is resident.
func (p *Pool) Contains(id core.PageID) bool {
	s := p.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.table[id]
	return ok
}
