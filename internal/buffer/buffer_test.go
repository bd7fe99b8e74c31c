package buffer

import (
	"errors"
	"fmt"
	"testing"

	"ipa/internal/core"
	"ipa/internal/sim"
)

// fakeStore is an in-memory page store recording flush order.
type fakeStore struct {
	pages    map[core.PageID][]byte
	flushes  []core.PageID
	fetchErr error
	flushErr error
	pageSize int
}

func newFakeStore(pageSize int) *fakeStore {
	return &fakeStore{pages: make(map[core.PageID][]byte), pageSize: pageSize}
}

func (s *fakeStore) Fetch(w *sim.Worker, id core.PageID, buf []byte) (int, error) {
	if s.fetchErr != nil {
		return 0, s.fetchErr
	}
	img, ok := s.pages[id]
	if !ok {
		return 0, fmt.Errorf("fake: page %d missing", id)
	}
	copy(buf, img)
	return 0, nil
}

func (s *fakeStore) Flush(w *sim.Worker, fr *Frame) error {
	if s.flushErr != nil {
		return s.flushErr
	}
	s.pages[fr.ID] = append([]byte(nil), fr.Data...)
	s.flushes = append(s.flushes, fr.ID)
	fr.Flushed = append(fr.Flushed[:0], fr.Data...)
	fr.New = false
	return nil
}

func newPool(t *testing.T, frames int, store Store) *Pool {
	t.Helper()
	p, err := New(Config{Frames: frames, PageSize: 64, DirtyThreshold: 2.0}, store)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Frames: 0, PageSize: 64}, nil); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := New(Config{Frames: 1, PageSize: 8}, nil); err == nil {
		t.Error("tiny pages accepted")
	}
}

func TestGetNewAndGetRoundTrip(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 4, st)
	fr, err := p.GetNew(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.New {
		t.Error("GetNew frame not marked New")
	}
	fr.Data[0] = 0xAA
	if err := p.Unpin(nil, fr, true, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	if fr.Dirty {
		t.Error("frame dirty after FlushAll")
	}
	// Re-get from pool (hit).
	fr2, err := p.Get(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if fr2 != fr || fr2.Data[0] != 0xAA {
		t.Error("hit returned wrong frame")
	}
	p.Unpin(nil, fr2, false, 0)
	if st.pages[7][0] != 0xAA {
		t.Error("flush did not reach store")
	}
	s := p.Stats()
	if s.Hits != 1 {
		t.Errorf("Hits = %d", s.Hits)
	}
}

func TestMissFetchesFromStore(t *testing.T) {
	st := newFakeStore(64)
	img := make([]byte, 64)
	img[3] = 9
	st.pages[42] = img
	p := newPool(t, 2, st)
	fr, err := p.Get(nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data[3] != 9 {
		t.Error("fetched data wrong")
	}
	if fr.Flushed == nil || fr.Flushed[3] != 9 {
		t.Error("Flushed snapshot not taken on fetch")
	}
	p.Unpin(nil, fr, false, 0)
	if p.Stats().Misses != 1 {
		t.Errorf("Misses = %d", p.Stats().Misses)
	}
}

func TestFetchErrorReleasesFrame(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 1, st)
	if _, err := p.Get(nil, 5); err == nil {
		t.Fatal("missing page fetch succeeded")
	}
	if p.Contains(5) {
		t.Error("failed fetch left page in table")
	}
	// The single frame must be reusable.
	if _, err := p.GetNew(nil, 6); err != nil {
		t.Errorf("frame not reusable after failed fetch: %v", err)
	}
}

func TestEvictionFlushesDirtyVictim(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	for id := core.PageID(1); id <= 2; id++ {
		fr, err := p.GetNew(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(id)
		p.Unpin(nil, fr, true, core.LSN(id))
	}
	// Third page forces eviction of a dirty victim.
	fr, err := p.GetNew(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(nil, fr, true, 3)
	if len(st.flushes) == 0 {
		t.Fatal("no eviction flush")
	}
	if p.Stats().EvictionFlush == 0 || p.Stats().Evictions == 0 {
		t.Errorf("stats = %+v", p.Stats())
	}
	// Evicted page is re-fetchable with its data intact.
	evicted := st.flushes[0]
	fr2, err := p.Get(nil, evicted)
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Data[0] != byte(evicted) {
		t.Errorf("refetched page %d data = %d", evicted, fr2.Data[0])
	}
	p.Unpin(nil, fr2, false, 0)
}

func TestAllPinnedErrors(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	f1, _ := p.GetNew(nil, 1)
	f2, _ := p.GetNew(nil, 2)
	_ = f1
	_ = f2
	if _, err := p.GetNew(nil, 3); !errors.Is(err, ErrNoFrames) {
		t.Errorf("all pinned: %v", err)
	}
}

func TestUnpinUnderflow(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	fr, _ := p.GetNew(nil, 1)
	if err := p.Unpin(nil, fr, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(nil, fr, false, 0); err == nil {
		t.Error("double unpin accepted")
	}
}

func TestRecLSNOnlyFirstDirty(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	fr, _ := p.GetNew(nil, 1)
	p.Unpin(nil, fr, true, 10)
	fr, _ = p.Get(nil, 1)
	p.Unpin(nil, fr, true, 20)
	if fr.RecLSN != 10 {
		t.Errorf("RecLSN = %d, want first-dirty 10", fr.RecLSN)
	}
	dpt := p.DirtyPages()
	if dpt[1] != 10 {
		t.Errorf("DPT = %v", dpt)
	}
	if p.OldestRecLSN() != 10 {
		t.Errorf("OldestRecLSN = %d", p.OldestRecLSN())
	}
}

func TestCleanerTriggersOnThreshold(t *testing.T) {
	st := newFakeStore(64)
	p, err := New(Config{Frames: 8, PageSize: 64, DirtyThreshold: 0.25, CleanBatch: 4}, st)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty 3 of 8 frames (37.5% > 25%) — cleaner should run on the
	// third unpin.
	for id := core.PageID(1); id <= 3; id++ {
		fr, err := p.GetNew(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(id)
		if err := p.Unpin(nil, fr, true, core.LSN(id)); err != nil {
			t.Fatal(err)
		}
	}
	if p.Stats().CleanerFlushes == 0 {
		t.Error("cleaner never ran")
	}
	if p.DirtyFraction() > 0.25 {
		t.Errorf("dirty fraction %v above threshold after cleaning", p.DirtyFraction())
	}
}

func TestFlushOldest(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 4, st)
	for id := core.PageID(1); id <= 3; id++ {
		fr, _ := p.GetNew(nil, id)
		p.Unpin(nil, fr, true, core.LSN(100-id)) // page 3 has oldest recLSN
	}
	n, err := p.FlushOldest(nil, 1)
	if err != nil || n != 1 {
		t.Fatalf("FlushOldest = (%d, %v)", n, err)
	}
	if len(st.flushes) != 1 || st.flushes[0] != 3 {
		t.Errorf("flushed %v, want [3]", st.flushes)
	}
	// Flushing more than available stops early.
	n, _ = p.FlushOldest(nil, 10)
	if n != 2 {
		t.Errorf("second FlushOldest = %d, want 2", n)
	}
}

func TestDrop(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	fr, _ := p.GetNew(nil, 1)
	if err := p.Drop(1); !errors.Is(err, ErrPinned) {
		t.Errorf("drop pinned: %v", err)
	}
	p.Unpin(nil, fr, true, 1)
	if err := p.Drop(1); err != nil {
		t.Fatal(err)
	}
	if p.Contains(1) {
		t.Error("dropped page still resident")
	}
	if p.DirtyFraction() != 0 {
		t.Error("drop did not clear dirty count")
	}
	if err := p.Drop(99); err != nil {
		t.Errorf("drop absent: %v", err)
	}
	if len(st.flushes) != 0 {
		t.Error("drop flushed the page")
	}
}

func TestFlushAllWithPinnedDirty(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 2, st)
	fr, _ := p.GetNew(nil, 1)
	s := fr.home.Load()
	s.mu.Lock()
	fr.Dirty = true // simulate dirty while pinned
	s.dirty.Add(1)
	s.mu.Unlock()
	if err := p.FlushAll(nil); !errors.Is(err, ErrPinned) {
		t.Errorf("FlushAll with pinned dirty: %v", err)
	}
}

func TestChurnManyPages(t *testing.T) {
	st := newFakeStore(64)
	p := newPool(t, 8, st)
	// 64 pages through 8 frames, writing a recognisable byte each.
	for round := 0; round < 3; round++ {
		for id := core.PageID(1); id <= 64; id++ {
			var fr *Frame
			var err error
			if round == 0 {
				fr, err = p.GetNew(nil, id)
			} else {
				fr, err = p.Get(nil, id)
			}
			if err != nil {
				t.Fatalf("round %d page %d: %v", round, id, err)
			}
			if round > 0 && fr.Data[1] != byte(round-1) {
				t.Fatalf("page %d stale: %d", id, fr.Data[1])
			}
			fr.Data[0] = byte(id)
			fr.Data[1] = byte(round)
			if err := p.Unpin(nil, fr, true, core.LSN(round*64+int(id))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.FlushAll(nil); err != nil {
		t.Fatal(err)
	}
	for id := core.PageID(1); id <= 64; id++ {
		if st.pages[id][0] != byte(id) || st.pages[id][1] != 2 {
			t.Fatalf("page %d final state wrong", id)
		}
	}
}

// CleanNotify must replace the inline cleaner: crossing the dirty
// threshold fires the notification and flushes nothing; an explicit
// CleanerPass (what the notified owner runs) then does the flushing.
func TestCleanNotifyReplacesInlineCleaner(t *testing.T) {
	st := newFakeStore(64)
	notified := 0
	p, err := New(Config{
		Frames: 8, PageSize: 64, DirtyThreshold: 0.25, CleanBatch: 4,
		CleanNotify: func() { notified++ },
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	for id := core.PageID(1); id <= 3; id++ {
		fr, err := p.GetNew(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(id)
		if err := p.Unpin(nil, fr, true, core.LSN(id)); err != nil {
			t.Fatal(err)
		}
	}
	if notified == 0 {
		t.Fatal("dirty threshold crossed without a notification")
	}
	if got := p.Stats().CleanerFlushes; got != 0 {
		t.Fatalf("Unpin flushed %d pages inline despite CleanNotify", got)
	}
	if len(st.flushes) != 0 {
		t.Fatalf("store saw %d flushes before CleanerPass", len(st.flushes))
	}
	if err := p.CleanerPass(nil); err != nil {
		t.Fatal(err)
	}
	if p.Stats().CleanerFlushes == 0 || len(st.flushes) == 0 {
		t.Error("explicit CleanerPass flushed nothing")
	}
	if p.DirtyFraction() > 0.25 {
		t.Errorf("dirty fraction %v above threshold after CleanerPass", p.DirtyFraction())
	}
}

// TestUnbindStampsFreshEpoch pins the OLC contract for frames that lose
// their page without being rebound: a version sampled while the page was
// resident must not validate afterwards. An index descent that samples a
// parent's version and unpins it relies on this — the page may be
// evicted, reloaded into another frame and split there while the old
// frame sits free (a dropped page, a stolen frame, a clean victim the
// raced miss path hands back).
func TestUnbindStampsFreshEpoch(t *testing.T) {
	// resident pins page id as a clean frame and returns it unpinned
	// together with its current version.
	resident := func(t *testing.T, p *Pool, id core.PageID) (*Frame, uint64) {
		t.Helper()
		fr, err := p.GetNew(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		v := fr.Version()
		if err := p.Unpin(nil, fr, false, 0); err != nil {
			t.Fatal(err)
		}
		return fr, v
	}
	t.Run("drop", func(t *testing.T) {
		p := newPool(t, 2, newFakeStore(64))
		fr, v := resident(t, p, 1)
		if err := p.Drop(1); err != nil {
			t.Fatal(err)
		}
		if fr.Version() == v {
			t.Errorf("Drop kept version %#x", v)
		}
	})
	t.Run("clean victim", func(t *testing.T) {
		p := newPool(t, 1, newFakeStore(64))
		fr, v := resident(t, p, 1)
		s := p.shardOf(1)
		s.mu.Lock()
		victim, err := p.victimLocked(s, nil)
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if victim != fr || fr.ID != core.InvalidPageID {
			t.Fatalf("victim %p id %d, want the frame of page 1 freed", victim, fr.ID)
		}
		if fr.Version() == v {
			t.Errorf("eviction left the free frame at version %#x", v)
		}
	})
	t.Run("steal", func(t *testing.T) {
		p, err := New(Config{Frames: 4, PageSize: 64, Shards: 2, DirtyThreshold: 2.0}, newFakeStore(64))
		if err != nil {
			t.Fatal(err)
		}
		id := core.PageID(1)
		for p.shardOf(id) != &p.shards[0] {
			id++
		}
		fr, v := resident(t, p, id)
		// Occupy shard 0's other frame so the thief can only take fr.
		other := id + 1
		for p.shardOf(other) != &p.shards[0] {
			other++
		}
		pinned, err := p.GetNew(nil, other)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.stealFrame(&p.shards[1]); got != fr {
			t.Fatalf("stole %p, want the frame of page %d", got, id)
		}
		if p.Contains(id) {
			t.Errorf("stolen page %d still resident", id)
		}
		if fr.Version() == v {
			t.Errorf("steal kept version %#x", v)
		}
		p.Unpin(nil, pinned, false, 0)
	})
}
