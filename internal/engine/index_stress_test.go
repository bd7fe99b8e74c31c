package engine

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"ipa/internal/core"
)

// TestIndexConcurrentStress hammers the index from 8
// goroutines with a mixed insert/update/delete/lookup/scan workload.
// Every worker owns a disjoint keyspace (keys prefixed with its id) and
// keeps a private shadow map, so mid-run lookups and scans over its own
// range have exact expected answers even while other workers mutate
// neighbouring leaves. After the run a global scan audits ordering and
// the combined population. Run under -race this doubles as the latching
// protocol's data-race check.
func TestIndexConcurrentStress(t *testing.T) {
	runTree(t, func(t *testing.T) {
		_, ix := newIndexRig(t, 128)

		const workers = 8
		opsPer := 800
		if testing.Short() {
			opsPer = 200
		}

		var wg sync.WaitGroup
		totals := make([]map[uint64]core.PageID, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000 + w)))
				shadow := map[uint64]core.PageID{}
				base := uint64(w+1) << 32 // disjoint keyspace per worker
				hi := base | 0xFFFFFFFF
				for op := 0; op < opsPer; op++ {
					k := base | uint64(rng.Intn(400)+1)
					switch rng.Intn(10) {
					case 0, 1, 2, 3: // insert
						if _, dup := shadow[k]; dup {
							continue
						}
						p := core.PageID(rng.Intn(1_000_000) + 1)
						if err := ix.Insert(nil, k, core.RID{Page: p}); err != nil {
							t.Errorf("worker %d insert %#x: %v", w, k, err)
							return
						}
						shadow[k] = p
					case 4, 5: // delete
						deleted, err := ix.Delete(nil, k)
						if err != nil {
							t.Errorf("worker %d delete %#x: %v", w, k, err)
							return
						}
						if _, had := shadow[k]; deleted != had {
							t.Errorf("worker %d delete %#x = %v, shadow had %v", w, k, deleted, !deleted)
							return
						}
						delete(shadow, k)
					case 6: // update a key we own
						if _, ok := shadow[k]; !ok {
							continue
						}
						p := core.PageID(rng.Intn(1_000_000) + 1)
						if err := ix.Update(nil, k, core.RID{Page: p}); err != nil {
							t.Errorf("worker %d update %#x: %v", w, k, err)
							return
						}
						shadow[k] = p
					case 7: // scan own range, audit against shadow
						seen := map[uint64]core.PageID{}
						prev := uint64(0)
						err := ix.Range(nil, base, hi, func(key uint64, rid core.RID) bool {
							if key <= prev {
								t.Errorf("worker %d scan out of order: %#x after %#x", w, key, prev)
								return false
							}
							prev = key
							seen[key] = rid.Page
							return true
						})
						if err != nil {
							t.Errorf("worker %d scan: %v", w, err)
							return
						}
						if len(seen) != len(shadow) {
							t.Errorf("worker %d scan saw %d keys, shadow has %d", w, len(seen), len(shadow))
							return
						}
						for key, p := range shadow {
							if seen[key] != p {
								t.Errorf("worker %d scan key %#x = %d, want %d", w, key, seen[key], p)
								return
							}
						}
					default: // lookup
						rid, ok, err := ix.Lookup(nil, k)
						if err != nil {
							t.Errorf("worker %d lookup %#x: %v", w, k, err)
							return
						}
						p, had := shadow[k]
						if ok != had || (ok && rid.Page != p) {
							t.Errorf("worker %d lookup %#x = (%v,%v), shadow (%d,%v)", w, k, rid.Page, ok, p, had)
							return
						}
					}
				}
				// Final audit of everything this worker owns.
				for k, p := range shadow {
					rid, ok, err := ix.Lookup(nil, k)
					if err != nil || !ok || rid.Page != p {
						t.Errorf("worker %d final lookup %#x = (%v,%v,%v), want %d", w, k, rid.Page, ok, err, p)
						return
					}
				}
				totals[w] = shadow
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		// Global audit: one scan sees every surviving key, strictly sorted.
		want := 0
		for _, m := range totals {
			want += len(m)
		}
		got, prev := 0, uint64(0)
		if err := ix.Range(nil, 0, 1<<63, func(key uint64, rid core.RID) bool {
			if key <= prev {
				t.Errorf("global scan out of order: %#x after %#x", key, prev)
				return false
			}
			prev = key
			got++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("global scan saw %d keys, shadows hold %d", got, want)
		}

		st := ix.Stats()
		if st.Inserts == 0 || st.Scans == 0 {
			t.Errorf("stats did not record the run: %+v", st)
		}
		t.Logf("restarts=%d latchWaits=%d", st.Restarts, st.LatchWaits)
	})
}

// TestIndexConcurrentHotKeys drives all workers into one narrow key
// range so leaf splits, optimistic restarts and latch hand-offs collide
// constantly. Invariants are weaker than the disjoint-keyspace stress
// (workers race on the same keys) but every operation must stay
// error-free apart from ErrKeyExists, and the tree must end sorted with
// no duplicates.
func TestIndexConcurrentHotKeys(t *testing.T) {
	runTree(t, func(t *testing.T) {
		_, ix := newIndexRig(t, 128)

		const workers = 8
		opsPer := 1500
		if testing.Short() {
			opsPer = 300
		}

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(77 + w)))
				for op := 0; op < opsPer; op++ {
					k := uint64(rng.Intn(300) + 1) // everyone fights over 300 keys
					switch rng.Intn(4) {
					case 0, 1:
						err := ix.Insert(nil, k, core.RID{Page: core.PageID(k)})
						if err != nil && !errors.Is(err, ErrKeyExists) {
							t.Errorf("insert %d: %v", k, err)
							return
						}
					case 2:
						if _, err := ix.Delete(nil, k); err != nil {
							t.Errorf("delete %d: %v", k, err)
							return
						}
					default:
						rid, ok, err := ix.Lookup(nil, k)
						if err != nil {
							t.Errorf("lookup %d: %v", k, err)
							return
						}
						if ok && rid.Page != core.PageID(k) {
							t.Errorf("lookup %d = %v", k, rid.Page)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		prev := uint64(0)
		if err := ix.Range(nil, 0, 1<<63, func(key uint64, rid core.RID) bool {
			if key <= prev {
				t.Errorf("scan out of order or duplicate: %#x after %#x", key, prev)
				return false
			}
			if rid.Page != core.PageID(key) {
				t.Errorf("key %d maps to %v", key, rid.Page)
				return false
			}
			prev = key
			return true
		}); err != nil {
			t.Fatal(err)
		}
		st := ix.Stats()
		t.Logf("restarts=%d latchWaits=%d", st.Restarts, st.LatchWaits)
	})
}

// TestIndexWritesVsInlineCleaner runs index node writes against the
// inline buffer cleaner. With a dirty threshold this low, nearly every
// Unpin — of a heap page or an index node — runs CleanerPass on the
// caller's goroutine, and the pass copies dirty unpinned frames under
// their content latch. Inserters add a heap row and then index it;
// readers look keys up and read the row back, so heap Unpins from
// goroutines that hold no index latch flush index nodes while other
// goroutines split and fill them. Node writes must therefore hold the
// frame latch: under -race an unlatched node write shows as a data race
// with the cleaner's copy. A Range over the whole tree audits the
// result against the inserters' shadow maps.
func TestIndexWritesVsInlineCleaner(t *testing.T) {
	db := newRigWithOptions(t, rigGeometry(), Options{
		PageSize: 512, BufferFrames: 24, DirtyThreshold: 0.05,
	})
	tbl, err := db.CreateTable("t", "r1")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndex("ix", "r1")
	if err != nil {
		t.Fatal(err)
	}
	const inserters, readers, perInserter = 4, 4, 250
	row := func(k uint64) []byte {
		b := make([]byte, 16)
		binary.LittleEndian.PutUint64(b, k)
		return b
	}
	shadows := make([]map[uint64]core.RID, inserters)
	var writers, lookups sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < inserters; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			shadow := map[uint64]core.RID{}
			for i := 0; i < perInserter; i++ {
				k := uint64(i*inserters + g + 1) // disjoint, interleaved keys
				tx := mustBegin(db, nil)
				rid, err := tbl.Insert(tx, row(k))
				if err == nil {
					err = tx.Commit()
				}
				if err == nil {
					err = ix.Insert(nil, k, rid)
				}
				if err != nil {
					t.Errorf("inserter %d key %d: %v", g, k, err)
					return
				}
				shadow[k] = rid
			}
			shadows[g] = shadow
		}(g)
	}
	for g := 0; g < readers; g++ {
		lookups.Add(1)
		go func(g int) {
			defer lookups.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(inserters*perInserter) + 1)
				rid, ok, err := ix.Lookup(nil, k)
				if err != nil {
					t.Errorf("lookup %d: %v", k, err)
					return
				}
				if !ok {
					continue // not inserted yet
				}
				tup, err := tbl.Read(nil, rid)
				if err != nil || binary.LittleEndian.Uint64(tup) != k {
					t.Errorf("lookup %d → %v: row %x, %v", k, rid, tup, err)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	lookups.Wait()
	if t.Failed() {
		return
	}
	want := map[uint64]core.RID{}
	for _, m := range shadows {
		for k, rid := range m {
			want[k] = rid
		}
	}
	seen, prev := 0, uint64(0)
	if err := ix.Range(nil, 0, 1<<63, func(k uint64, rid core.RID) bool {
		if k <= prev || want[k] != rid {
			t.Errorf("range key %d → %v after %d, want %v", k, rid, prev, want[k])
			return false
		}
		prev = k
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Errorf("range saw %d keys, inserters indexed %d", seen, len(want))
	}
	if st := db.pool.Stats(); st.CleanerFlushes == 0 {
		t.Errorf("the inline cleaner never ran: %+v", st)
	}
}
