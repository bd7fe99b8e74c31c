package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/sim"
)

// The engine-tpcc-cold configuration: the paper's emulator testbed (16
// SLC chips, 10% over-provisioning, page mapping, the [2×3] scheme),
// eager cleaning and log reclamation, a single-shard pool (the paper's
// deterministic CLOCK) and the default index, with TPC-C at 2 warehouses
// and the pool at a quarter of the base tables' pages so buffer misses
// and dirty evictions reach the IPA page store and the collector.
//
// The geometry is fixed, and the live data does not grow: the order,
// order-line and history tables are rings of preloaded rows that NewOrder
// and Payment overwrite oldest first, as a database that retains a fixed
// window of history does. (The engine never reuses the space of deleted
// tuples, so deleting old rows would not keep the device's mapped pages
// flat.) The region's utilization is therefore the same from warm-up to
// the end of every run, whatever its length, and the collector works at
// one steady state.
const (
	tpccWarehouses  = 2
	tpccItems       = 2400 // stock rows per warehouse
	tpccCustPerDist = 100
	tpccPoolShare   = 0.25
	tpccTerminals   = 2
	tpccPageSize    = 4096
	tpccChips       = 16
	tpccPagesPerBlk = 64
	tpccBlocksPerCh = 8

	// The rings: orders, their lines at TPC-C's mean of 10 per order, and
	// one history row per order.
	tpccRingOrders = 36000
	tpccRingLines  = 10 * tpccRingOrders
	tpccRingHist   = tpccRingOrders

	// tpccTxPerSecond converts --seconds into the measured transaction
	// count. The measured phase is a fixed number of transactions, not a
	// wall-clock window, so every simulated-time and device count repeats
	// exactly for a seed; the rate is sized so a run lasts about
	// --seconds on a 2-core x86 host.
	tpccTxPerSecond = 13000

	// txCPU is the simulated CPU time charged per transaction, which
	// keeps simulated throughput finite when every page hits the pool.
	txCPU = 50 * time.Microsecond
)

var (
	schWH    = mustSchema(4, 8, 78)                  // wid ytd filler
	schDist  = mustSchema(4, 4, 4, 8, 75)            // did wid nextOID ytd filler
	schCust  = mustSchema(4, 4, 4, 8, 8, 4, 268)     // cid did wid balance ytdPay payCnt data
	schStock = mustSchema(4, 4, 4, 8, 4, 4, 100, 72) // iid wid qty ytd orderCnt remoteCnt dist filler
	schOrder = mustSchema(4, 4, 4, 4, 4, 8)          // oid did wid cid olCnt time
	schOL    = mustSchema(4, 4, 4, 4, 8)             // oid line iid qty amount
	schHistC = mustSchema(4, 4, 8, 8)                // cid wid amount time
	schAcct  = mustSchema(4, 4, 8, 84)               // aid bid balance filler
	schCtl   = mustSchema(4, 4, 8, 84)               // id bid balance filler
	schHistB = mustSchema(4, 4, 4, 8, 8)             // aid tid bid delta seq
)

func mustSchema(widths ...int) *engine.Schema {
	s, err := engine.NewSchema(widths...)
	if err != nil {
		panic(err)
	}
	return s
}

// tpccStack is one in-process engine loaded with TPC-C, plus the ledger
// of committed work the end-of-run audit checks the tables against.
type tpccStack struct {
	db     *engine.DB
	region *noftl.Region
	blocks uint64 // erase blocks in the region
	tl     *sim.Timeline
	loader *sim.Worker

	wh, dist, cust, stock *engine.Table
	order, ol, hist       *ring
	stockIdx, custIdx     engine.Index
	whRIDs, distRIDs      []core.RID

	payments  [tpccWarehouses]uint64 // Σ committed Payment amounts per warehouse
	newOrders uint64                 // committed NewOrders
	committed uint64                 // transactions, read-only ones included
	commits   uint64                 // Tx.Commit calls that succeeded
}

// ring is a table of preloaded rows that transactions overwrite in turn,
// with the ledger of what each row must hold: the hash of the tuple the
// last committed write left there.
type ring struct {
	t      *engine.Table
	rids   []core.RID
	want   []uint64
	next   int    // the slot the next committed write starts at
	writes uint64 // committed writes since load
}

func tupleHash(tup []byte) uint64 {
	h := fnv.New64a()
	h.Write(tup)
	return h.Sum64()
}

// slot is the ring slot i places after the next one.
func (r *ring) slot(i int) int { return (r.next + i) % len(r.rids) }

// write overwrites the slot i places after the next one under tx; the
// ledger learns of it only through commit.
func (r *ring) write(k *terminal, tx *engine.Tx, i int, tup []byte) error {
	return k.update(tx, r.t, r.rids[r.slot(i)], tup)
}

// commit records that n writes starting at the next slot committed with
// the tuples whose hashes are given, and advances the ring.
func (r *ring) commit(hashes []uint64) {
	for i, h := range hashes {
		r.want[r.slot(i)] = h
	}
	r.next = r.slot(len(hashes))
	r.writes += uint64(len(hashes))
}

// cycled reports whether every slot has been overwritten since load.
func (r *ring) cycled() bool { return r.writes >= uint64(len(r.rids)) }

// check scans the ring's table and fails unless it holds exactly the
// ring's rows, each with the tuple its ledger expects. It returns the
// tuple bytes it scanned.
func (r *ring) check(w *sim.Worker) (bytes uint64, err error) {
	i := 0
	scanErr := r.t.Scan(w, func(rid core.RID, tup []byte) bool {
		bytes += uint64(len(tup))
		switch {
		case i >= len(r.rids) || rid != r.rids[i]:
			err = fmt.Errorf("audit: %s holds an unexpected row at %v", r.t.Name(), rid)
		case tupleHash(tup) != r.want[i]:
			err = fmt.Errorf("audit: %s slot %d does not hold its last committed write", r.t.Name(), i)
		}
		i++
		return err == nil
	})
	switch {
	case scanErr != nil:
		return 0, fmt.Errorf("audit scan %s: %w", r.t.Name(), scanErr)
	case err == nil && i != len(r.rids):
		err = fmt.Errorf("audit: %s holds %d rows, want %d", r.t.Name(), i, len(r.rids))
	}
	return bytes, err
}

// newTPCCStack builds the flash array, region and engine and loads the
// tables. The pool is resized to its share of the base tables afterwards.
func newTPCCStack(seed int64) (*tpccStack, error) {
	tl := sim.NewTimeline(tpccChips)
	arr, err := flash.New(flash.Config{
		Geometry: flash.Geometry{
			Chips: tpccChips, BlocksPerChip: tpccBlocksPerCh, PagesPerBlock: tpccPagesPerBlk,
			PageSize: tpccPageSize, OOBSize: tpccPageSize / 16, Cell: flash.SLC,
		},
		Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8, Seed: seed,
	}, tl)
	if err != nil {
		return nil, err
	}
	dev := noftl.Open(arr)
	region, err := dev.CreateRegion(noftl.RegionConfig{
		Name: "data", Mode: noftl.ModeSLC, Scheme: core.NewScheme(2, 3),
		BlocksPerChip: tpccBlocksPerCh, OverProvision: 0.10,
	})
	if err != nil {
		return nil, err
	}
	db, err := engine.New(dev, engine.Options{
		PageSize: tpccPageSize, BufferFrames: 1024, Timeline: tl,
		PoolShards: 1, DirtyThreshold: 0.125,
		LogCapacity: 1 << 22, LogReclaimThreshold: 0.35,
	})
	if err != nil {
		return nil, err
	}
	s := &tpccStack{db: db, region: region, tl: tl, loader: tl.NewWorker(),
		blocks: uint64(tpccChips * tpccBlocksPerCh)}
	base, err := s.load(rand.New(rand.NewSource(seed)))
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("tpcc load: %w", err)
	}
	frames := int(tpccPoolShare * float64(base))
	if err := db.ResizePool(s.loader, frames); err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

func (s *tpccStack) close() { s.db.Close() }

func stockKey(wid, iid int) uint64     { return uint64(wid)<<32 | uint64(iid) }
func custKey(wid, did, cid int) uint64 { return uint64(wid)<<40 | uint64(did)<<32 | uint64(cid) }

// load creates and fills the tables, the base tables first, and returns
// how many pages the base tables and their indexes map.
func (s *tpccStack) load(rng *rand.Rand) (basePages int, err error) {
	db, w := s.db, s.loader
	s.order, s.ol, s.hist = &ring{}, &ring{}, &ring{}
	for _, tb := range []struct {
		dst  **engine.Table
		name string
	}{
		{&s.wh, "tpcc_warehouse"}, {&s.dist, "tpcc_district"}, {&s.cust, "tpcc_customer"},
		{&s.stock, "tpcc_stock"}, {&s.order.t, "tpcc_order"}, {&s.ol.t, "tpcc_orderline"},
		{&s.hist.t, "tpcc_history"},
	} {
		t, err := db.CreateTable(tb.name, "data")
		if err != nil {
			return 0, err
		}
		*tb.dst = t
	}
	if s.stockIdx, err = db.CreateIndex("tpcc_stock_pk", "data"); err != nil {
		return 0, err
	}
	if s.custIdx, err = db.CreateIndex("tpcc_customer_pk", "data"); err != nil {
		return 0, err
	}
	// insertBatch inserts rows in one transaction per batch of n.
	insertBatch := func(rows int, n int, each func(tx *engine.Tx, i int) error) error {
		for lo := 0; lo < rows; lo += n {
			tx, err := db.Begin(w)
			if err != nil {
				return err
			}
			for i := lo; i < min(lo+n, rows); i++ {
				if err := each(tx, i); err != nil {
					tx.Abort()
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	}
	for wid := 1; wid <= tpccWarehouses; wid++ {
		err = insertBatch(1, 1, func(tx *engine.Tx, _ int) error {
			t := schWH.New()
			schWH.SetUint(t, 0, uint64(wid))
			rid, err := s.wh.Insert(tx, t)
			s.whRIDs = append(s.whRIDs, rid)
			return err
		})
		if err != nil {
			return 0, err
		}
		err = insertBatch(10, 1, func(tx *engine.Tx, i int) error {
			t := schDist.New()
			schDist.SetUint(t, 0, uint64(i+1))
			schDist.SetUint(t, 1, uint64(wid))
			schDist.SetUint(t, 2, 1) // next order id
			rid, err := s.dist.Insert(tx, t)
			s.distRIDs = append(s.distRIDs, rid)
			return err
		})
		if err != nil {
			return 0, err
		}
		err = insertBatch(10*tpccCustPerDist, 10*tpccCustPerDist, func(tx *engine.Tx, i int) error {
			did, cid := i/tpccCustPerDist+1, i%tpccCustPerDist+1
			t := schCust.New()
			schCust.SetUint(t, 0, uint64(cid))
			schCust.SetUint(t, 1, uint64(did))
			schCust.SetUint(t, 2, uint64(wid))
			rid, err := s.cust.Insert(tx, t)
			if err != nil {
				return err
			}
			return s.custIdx.Insert(w, custKey(wid, did, cid), rid)
		})
		if err != nil {
			return 0, err
		}
		err = insertBatch(tpccItems, 2000, func(tx *engine.Tx, i int) error {
			iid := i + 1
			t := schStock.New()
			schStock.SetUint(t, 0, uint64(iid))
			schStock.SetUint(t, 1, uint64(wid))
			schStock.SetUint(t, 2, uint64(50+iid%50))
			rid, err := s.stock.Insert(tx, t)
			if err != nil {
				return err
			}
			return s.stockIdx.Insert(w, stockKey(wid, iid), rid)
		})
		if err != nil {
			return 0, err
		}
	}
	if err := db.FlushAll(w); err != nil {
		return 0, err
	}
	basePages = s.region.MappedPages()

	// The rings start as a pre-history of delivered orders, their lines
	// and payments, which the measured transactions overwrite in turn.
	for _, r := range []struct {
		r   *ring
		n   int
		gen func(i int) []byte
	}{
		{s.order, tpccRingOrders, func(i int) []byte {
			return orderTuple(0, i/tpccWarehouses%10+1, i%tpccWarehouses+1, rng.Intn(tpccCustPerDist)+1, 10, 0)
		}},
		{s.ol, tpccRingLines, func(i int) []byte {
			return lineTuple(0, i%10+1, rng.Intn(tpccItems)+1, 5, uint64(rng.Intn(9999)+1))
		}},
		{s.hist, tpccRingHist, func(i int) []byte {
			return histTuple(rng.Intn(tpccCustPerDist)+1, i%tpccWarehouses+1, uint64(rng.Intn(500000)+100), 0)
		}},
	} {
		r.r.rids, r.r.want = make([]core.RID, 0, r.n), make([]uint64, 0, r.n)
		err := insertBatch(r.n, 2000, func(tx *engine.Tx, i int) error {
			tup := r.gen(i)
			rid, err := r.r.t.Insert(tx, tup)
			r.r.rids = append(r.r.rids, rid)
			r.r.want = append(r.r.want, tupleHash(tup))
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return basePages, db.FlushAll(w)
}

func orderTuple(oid uint64, did, wid, cid, olCnt int, at sim.Time) []byte {
	t := schOrder.New()
	schOrder.SetUint(t, 0, oid)
	schOrder.SetUint(t, 1, uint64(did))
	schOrder.SetUint(t, 2, uint64(wid))
	schOrder.SetUint(t, 3, uint64(cid))
	schOrder.SetUint(t, 4, uint64(olCnt))
	schOrder.SetUint(t, 5, uint64(at))
	return t
}

func lineTuple(oid uint64, line, iid int, qty, amount uint64) []byte {
	t := schOL.New()
	schOL.SetUint(t, 0, oid)
	schOL.SetUint(t, 1, uint64(line))
	schOL.SetUint(t, 2, uint64(iid))
	schOL.SetUint(t, 3, qty)
	schOL.SetUint(t, 4, amount)
	return t
}

func histTuple(cid, wid int, amount uint64, at sim.Time) []byte {
	t := schHistC.New()
	schHistC.SetUint(t, 0, uint64(cid))
	schHistC.SetUint(t, 1, uint64(wid))
	schHistC.SetUint(t, 2, amount)
	schHistC.SetUint(t, 3, uint64(at))
	return t
}

// terminal is one simulated TPC-C terminal: its own simulated clock, its
// own random stream and, in traced runs, its own span recorder.
type terminal struct {
	s   *tpccStack
	w   *sim.Worker
	rng *rand.Rand
	tr  *tracer
}

func (s *tpccStack) terminals(seed int64) []*terminal {
	terms := make([]*terminal, tpccTerminals)
	for i := range terms {
		w := s.tl.NewWorker()
		w.SetNow(s.loader.Now())
		terms[i] = &terminal{s: s, w: w, rng: rand.New(rand.NewSource(seed*7919 + int64(i)))}
	}
	return terms
}

// nuRand is TPC-C's non-uniform random draw NURand(A, x, y).
func nuRand(rng *rand.Rand, a, x, y int) int {
	c := a / 2
	return (((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

// The wrappers below are the benchmark's boundary into the engine: each
// call into a layer's public function is one span in a traced run, with
// the simulated time the call advanced the terminal's clock.

func (k *terminal) begin(name spanName) (int32, sim.Time) {
	if k.tr == nil {
		return -1, 0
	}
	return k.tr.begin(name), k.w.Now()
}

func (k *terminal) end(id int32, t0 sim.Time) {
	if k.tr != nil {
		k.tr.end(id, int64(k.w.Now()-t0))
	}
}

func (k *terminal) txBegin() (*engine.Tx, error) {
	id, t0 := k.begin(spanBegin)
	tx, err := k.s.db.Begin(k.w)
	k.end(id, t0)
	return tx, err
}

func (k *terminal) commit(tx *engine.Tx) error {
	id, t0 := k.begin(spanCommit)
	err := tx.Commit()
	k.end(id, t0)
	if err == nil {
		k.s.commits++
	}
	return err
}

func (k *terminal) abort(tx *engine.Tx) {
	id, t0 := k.begin(spanAbort)
	tx.Abort()
	k.end(id, t0)
}

func (k *terminal) read(t *engine.Table, rid core.RID) ([]byte, error) {
	id, t0 := k.begin(spanRead)
	tup, err := t.Read(k.w, rid)
	k.end(id, t0)
	return tup, err
}

func (k *terminal) update(tx *engine.Tx, t *engine.Table, rid core.RID, tup []byte) error {
	id, t0 := k.begin(spanUpdate)
	err := t.Update(tx, rid, tup)
	k.end(id, t0)
	return err
}

func (k *terminal) lookup(ix engine.Index, key uint64) (core.RID, error) {
	id, t0 := k.begin(spanLookup)
	rid, ok, err := ix.Lookup(k.w, key)
	k.end(id, t0)
	if err == nil && !ok {
		err = fmt.Errorf("index %s: key %#x missing", ix.Name(), key)
	}
	return rid, err
}

// runOne executes one transaction of the TPC-C mix: 45% NewOrder, 43%
// Payment, 4% each OrderStatus, Delivery and StockLevel.
func (k *terminal) runOne() error {
	switch p := k.rng.Intn(100); {
	case p < 45:
		return k.newOrder()
	case p < 88:
		return k.payment()
	case p < 92:
		return k.orderStatus()
	case p < 96:
		return k.delivery()
	default:
		return k.stockLevel()
	}
}

// inTx runs body inside a transaction, aborting it on error.
func (k *terminal) inTx(body func(tx *engine.Tx) error) error {
	tx, err := k.txBegin()
	if err != nil {
		return err
	}
	if err := body(tx); err != nil {
		k.abort(tx)
		return err
	}
	return k.commit(tx)
}

// newOrder bumps the district's next order id, updates S_QUANTITY, S_YTD
// and S_ORDER_CNT/S_REMOTE_CNT of 5-15 stock rows (small numeric deltas,
// the IPA case) and writes the order and its order lines over the oldest
// ones in their rings.
func (k *terminal) newOrder() error {
	s, rng := k.s, k.rng
	wid := rng.Intn(tpccWarehouses) + 1
	did := rng.Intn(10) + 1
	cid := nuRand(rng, 1023, 1, tpccCustPerDist)
	olCnt := 5 + rng.Intn(11)
	var order uint64
	lines := make([]uint64, 0, olCnt)
	err := k.inTx(func(tx *engine.Tx) error {
		drid := s.distRIDs[(wid-1)*10+did-1]
		dt, err := k.read(s.dist, drid)
		if err != nil {
			return err
		}
		oid := schDist.GetUint(dt, 2)
		schDist.AddUint(dt, 2, 1)
		if err := k.update(tx, s.dist, drid, dt); err != nil {
			return err
		}
		ot := orderTuple(oid, did, wid, cid, olCnt, k.w.Now())
		if err := s.order.write(k, tx, 0, ot); err != nil {
			return err
		}
		order = tupleHash(ot)
		for line := 1; line <= olCnt; line++ {
			iid := nuRand(rng, 8191, 1, tpccItems)
			swid, remote := wid, false
			if rng.Intn(100) == 0 { // 1% remote warehouse
				swid = rng.Intn(tpccWarehouses) + 1
				remote = swid != wid
			}
			srid, err := k.lookup(s.stockIdx, stockKey(swid, iid))
			if err != nil {
				return err
			}
			st, err := k.read(s.stock, srid)
			if err != nil {
				return err
			}
			qty := uint64(rng.Intn(10) + 1)
			if cur := schStock.GetUint(st, 2); cur >= qty+10 {
				schStock.SetUint(st, 2, cur-qty)
			} else {
				schStock.SetUint(st, 2, cur-qty+91)
			}
			schStock.AddUint(st, 3, qty)
			if remote {
				schStock.AddUint(st, 5, 1)
			} else {
				schStock.AddUint(st, 4, 1)
			}
			if err := k.update(tx, s.stock, srid, st); err != nil {
				return err
			}
			ol := lineTuple(oid, line, iid, qty, qty*uint64(rng.Intn(9999)+1))
			if err := s.ol.write(k, tx, line-1, ol); err != nil {
				return err
			}
			lines = append(lines, tupleHash(ol))
		}
		return nil
	})
	if err == nil {
		s.newOrders++
		s.order.commit([]uint64{order})
		s.ol.commit(lines)
	}
	return err
}

// payment adds the amount to W_YTD, D_YTD and the customer's balance,
// YTD payment and payment count; one in ten also rewrites C_DATA (a
// large update that IPA cannot absorb).
func (k *terminal) payment() error {
	s, rng := k.s, k.rng
	wid := rng.Intn(tpccWarehouses) + 1
	did := rng.Intn(10) + 1
	cid := nuRand(rng, 1023, 1, tpccCustPerDist)
	amount := uint64(rng.Intn(500000) + 100)
	var hist uint64
	err := k.inTx(func(tx *engine.Tx) error {
		wrid := s.whRIDs[wid-1]
		wt, err := k.read(s.wh, wrid)
		if err != nil {
			return err
		}
		schWH.AddUint(wt, 1, amount)
		if err := k.update(tx, s.wh, wrid, wt); err != nil {
			return err
		}
		drid := s.distRIDs[(wid-1)*10+did-1]
		dt, err := k.read(s.dist, drid)
		if err != nil {
			return err
		}
		schDist.AddUint(dt, 3, amount)
		if err := k.update(tx, s.dist, drid, dt); err != nil {
			return err
		}
		crid, err := k.lookup(s.custIdx, custKey(wid, did, cid))
		if err != nil {
			return err
		}
		ct, err := k.read(s.cust, crid)
		if err != nil {
			return err
		}
		schCust.AddUint(ct, 3, amount)
		schCust.AddUint(ct, 4, amount)
		schCust.AddUint(ct, 5, 1)
		if rng.Intn(10) == 0 {
			data := make([]byte, 268)
			rng.Read(data)
			schCust.SetBytes(ct, 6, data)
		}
		if err := k.update(tx, s.cust, crid, ct); err != nil {
			return err
		}
		h := histTuple(cid, wid, amount, k.w.Now())
		hist = tupleHash(h)
		return s.hist.write(k, tx, 0, h)
	})
	if err == nil {
		s.payments[wid-1] += amount
		s.hist.commit([]uint64{hist})
	}
	return err
}

// orderStatus is a read-only customer probe.
func (k *terminal) orderStatus() error {
	s, rng := k.s, k.rng
	wid := rng.Intn(tpccWarehouses) + 1
	did := rng.Intn(10) + 1
	cid := nuRand(rng, 1023, 1, tpccCustPerDist)
	crid, err := k.lookup(s.custIdx, custKey(wid, did, cid))
	if err != nil {
		return err
	}
	_, err = k.read(s.cust, crid)
	return err
}

// delivery credits one customer in each of the warehouse's 10 districts.
func (k *terminal) delivery() error {
	s, rng := k.s, k.rng
	wid := rng.Intn(tpccWarehouses) + 1
	return k.inTx(func(tx *engine.Tx) error {
		for did := 1; did <= 10; did++ {
			cid := rng.Intn(tpccCustPerDist) + 1
			crid, err := k.lookup(s.custIdx, custKey(wid, did, cid))
			if err != nil {
				return err
			}
			ct, err := k.read(s.cust, crid)
			if err != nil {
				return err
			}
			schCust.AddUint(ct, 3, uint64(rng.Intn(5000)+1))
			if err := k.update(tx, s.cust, crid, ct); err != nil {
				return err
			}
		}
		return nil
	})
}

// stockLevel is a read-only probe of 20 random stock rows.
func (k *terminal) stockLevel() error {
	s, rng := k.s, k.rng
	wid := rng.Intn(tpccWarehouses) + 1
	for i := 0; i < 20; i++ {
		srid, err := k.lookup(s.stockIdx, stockKey(wid, rng.Intn(tpccItems)+1))
		if err != nil {
			return err
		}
		if _, err := k.read(s.stock, srid); err != nil {
			return err
		}
	}
	return nil
}

// tpccPhase is what one stretch of transactions measured.
type tpccPhase struct {
	n             int
	wall          time.Duration
	simStart      sim.Time
	simEnd        sim.Time
	lat           latencyLog
	simLat        []float64 // per-transaction simulated latency, µs
	mallocs       uint64
	commits       uint64
	before, after counters
}

// runTx executes n transactions round-robin over the terminals. Every
// error fails the run: one goroutine drives both terminals, so no lock
// conflict can occur and any error is a defect.
func (s *tpccStack) runTx(terms []*terminal, n int, keepLat bool) (tpccPhase, error) {
	ph := tpccPhase{n: n}
	st, err := s.db.Stats()
	if err != nil {
		return ph, err
	}
	ph.before = countersOf(st)
	for _, k := range terms {
		ph.simStart = max(ph.simStart, k.w.Now())
	}
	if keepLat {
		ph.lat.us = make([]float64, 0, n)
		ph.simLat = make([]float64, 0, n)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, commits := ms.Mallocs, s.commits
	start := time.Now()
	for i := 0; i < n; i++ {
		k := terms[i%len(terms)]
		t0, s0 := time.Now(), k.w.Now()
		root, _ := k.begin(spanTx)
		k.w.Compute(txCPU)
		err := k.runOne()
		k.end(root, s0)
		if err != nil {
			return ph, fmt.Errorf("tpcc transaction %d: %w", i, err)
		}
		s.committed++
		if keepLat {
			ph.lat.add(t0)
			ph.simLat = append(ph.simLat, float64(k.w.Now()-s0)/1e3)
		}
	}
	ph.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	ph.mallocs = ms.Mallocs - mallocs
	ph.commits = s.commits - commits
	for _, k := range terms {
		ph.simEnd = max(ph.simEnd, k.w.Now())
	}
	if st, err = s.db.Stats(); err != nil {
		return ph, err
	}
	ph.after = countersOf(st)
	return ph, nil
}

// warmUp runs transactions until every ring has been overwritten once
// and the collector has erased as many blocks as the region holds. Until
// the rings have cycled, part of the data still lies as the load wrote
// it and the erase rate is still climbing; after that the write path
// runs in its steady state. It is deterministic for a seed.
func (s *tpccStack) warmUp(terms []*terminal) error {
	for s.region.Stats().GCErases < s.blocks || !s.order.cycled() || !s.ol.cycled() || !s.hist.cycled() {
		if _, err := s.runTx(terms, 1000, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if s.committed > 2_000_000 {
			return errors.New("warm-up: the rings or the collector never cycled")
		}
	}
	return nil
}

// audit checks the tables against the ledger of committed work: per
// warehouse, W_YTD = Σ D_YTD = Σ committed Payment amounts; the
// districts' next order ids account for exactly the committed NewOrders;
// and every ring row holds the tuple its last committed write left there.
// It returns the live tuple bytes it scanned.
func (s *tpccStack) audit() (liveBytes uint64, err error) {
	w := s.loader
	var whYTD, distYTD [tpccWarehouses]uint64
	var orders uint64
	for _, step := range []struct {
		t  *engine.Table
		fn func([]byte)
	}{
		{s.wh, func(t []byte) { whYTD[schWH.GetUint(t, 0)-1] += schWH.GetUint(t, 1) }},
		{s.dist, func(t []byte) {
			distYTD[schDist.GetUint(t, 1)-1] += schDist.GetUint(t, 3)
			orders += schDist.GetUint(t, 2) - 1
		}},
		{s.cust, nil}, {s.stock, nil},
	} {
		err := step.t.Scan(w, func(_ core.RID, tup []byte) bool {
			liveBytes += uint64(len(tup))
			if step.fn != nil {
				step.fn(tup)
			}
			return true
		})
		if err != nil {
			return 0, fmt.Errorf("audit scan %s: %w", step.t.Name(), err)
		}
	}
	for i := range whYTD {
		if whYTD[i] != distYTD[i] || whYTD[i] != s.payments[i] {
			return 0, fmt.Errorf("audit: warehouse %d: W_YTD %d, Σ D_YTD %d, Σ payments %d",
				i+1, whYTD[i], distYTD[i], s.payments[i])
		}
	}
	if orders != s.newOrders {
		return 0, fmt.Errorf("audit: the districts issued %d order ids, want %d", orders, s.newOrders)
	}
	for _, r := range []*ring{s.order, s.ol, s.hist} {
		n, err := r.check(w)
		if err != nil {
			return 0, err
		}
		liveBytes += n
	}
	return liveBytes, nil
}

// utilization is the share of the region's logical pages that hold data.
func (s *tpccStack) utilization() float64 {
	return float64(s.region.MappedPages()) / float64(s.region.LogicalCapacity())
}

// setUpTPCC builds, loads and warms one stack and returns it with its
// terminals.
func setUpTPCC(seed int64) (*tpccStack, []*terminal, error) {
	s, err := newTPCCStack(seed)
	if err != nil {
		return nil, nil, err
	}
	terms := s.terminals(seed)
	if err := s.warmUp(terms); err != nil {
		s.close()
		return nil, nil, err
	}
	return s, terms, nil
}

// runEngineTPCC is the engine-tpcc-cold workload.
func runEngineTPCC(cfg runConfig) (*report, error) {
	n := tpccTxPerSecond * cfg.seconds
	var (
		setups []float64
		s      *tpccStack
		terms  []*terminal
	)
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
			s, terms = nil, nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if s, terms, err = setUpTPCC(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	rep := newReport(cfg, workloadEngineTPCC)
	rep.setup(setups)
	rep.rec.UtilStart = s.utilization()
	var phases []tpccPhase
	var lt layerTimes
	if !cfg.trace {
		ph, err := s.runTx(terms, n, true)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	} else {
		// Untraced first half, traced second half: the difference in
		// throughput is the tracing overhead.
		a, err := s.runTx(terms, n/2, false)
		if err != nil {
			return nil, err
		}
		tracers := make([]*tracer, len(terms))
		t0 := time.Now()
		for i, k := range terms {
			tracers[i] = newTracer(t0)
			k.tr = tracers[i]
		}
		b, err := s.runTx(terms, n-n/2, true)
		if err != nil {
			return nil, err
		}
		if lt, err = aggregate(tracers); err != nil {
			return nil, err
		}
		phases = append(phases, a, b)
	}
	measured := phases[len(phases)-1]
	live, err := s.audit()
	if err != nil {
		return nil, err
	}
	rep.attempted = int64(measured.n)
	rep.rec.MeasuredS = measured.wall.Seconds()
	rep.rec.UtilEnd = s.utilization()
	mapped := uint64(s.region.MappedPages()) * tpccPageSize

	d := measured.after.sub(measured.before)
	tx := float64(measured.n)
	rep.e2e(measured.wall, []*latencyLog{&measured.lat}, tx, d["flash.bytes_written"], d["flash.erases"])
	rep.rssMB(selfRSS())
	if !cfg.trace {
		return rep, nil
	}
	simS := float64(measured.simEnd-measured.simStart) / 1e9
	rep.layer("sim_tps", tx/simS)
	rep.layer("sim_lat_p99_us", quantile(measured.simLat, 0.99))
	rep.rec.Samples["sim_lat_p99_us"] = len(measured.simLat)
	rep.layer("space_amp", float64(mapped)/float64(live))
	rep.layer("runtime.allocs_per_tx", float64(phases[0].mallocs)/float64(phases[0].n))
	rep.engineLayers(d, tx, float64(measured.commits), lt)
	rep.traceOverhead(float64(phases[0].n)/phases[0].wall.Seconds(), tx/measured.wall.Seconds(), lt)
	return rep, nil
}
