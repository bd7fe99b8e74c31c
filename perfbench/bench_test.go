package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/server"
	"ipa/internal/sim"
)

// refQuantile is the textbook definition the interpolating quantile must
// match: rank q·(n−1) in the sorted sample, interpolated linearly.
func refQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := q * float64(len(s)-1)
	lo, hi := int(math.Floor(r)), int(math.Ceil(r))
	return s[lo] + (r-float64(lo))*(s[hi]-s[lo])
}

func TestQuantileMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 4321} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 1000 // latency-like, long tail
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want := refQuantile(xs, q)
			if got := quantile(append([]float64(nil), xs...), q); math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("n=%d q=%v: quantile %v, reference %v", n, q, got, want)
			}
		}
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Fatalf("median of {3,1,2} = %v", got)
	}
}

// The spread rule judges runs by Python's statistics.quantiles(n=4);
// these expectations were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4}, 1, 4, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestLatencyStatsCountEveryTransaction(t *testing.T) {
	// 980 transactions at 1 ms and a stall of 20 at 50 ms, split over two
	// clients: the stall must reach the p99.
	var a, b latencyLog
	for i := 0; i < 1000; i++ {
		us := 1000.0
		if i >= 980 {
			us = 50000
		}
		l := &a
		if i%2 == 1 {
			l = &b
		}
		l.us = append(l.us, us)
	}
	p50, p99, n := latencyStats([]*latencyLog{&a, &b})
	if p50 != 1000 || p99 != 50000 || n != 1000 {
		t.Fatalf("latencyStats = p50 %v, p99 %v over %d; want 1000, 50000, 1000", p50, p99, n)
	}
}

func TestTraceSelfTimesSumToRoots(t *testing.T) {
	tr := newTracer(time.Now())
	for i := 0; i < 3; i++ {
		root := tr.begin(spanTx)
		for j := 0; j < 2; j++ {
			c := tr.begin(spanRead)
			time.Sleep(100 * time.Microsecond)
			tr.end(c, 0)
		}
		time.Sleep(50 * time.Microsecond)
		tr.end(root, 0)
	}
	lt, err := aggregate([]*tracer{tr})
	if err != nil {
		t.Fatal(err)
	}
	if lt.count[spanTx] != 3 || lt.count[spanRead] != 6 {
		t.Fatalf("counts %v", lt.count)
	}
	if lt.self[spanTx]+lt.self[spanRead] != lt.roots {
		t.Fatalf("self times %v do not sum to roots %v", lt.self, lt.roots)
	}
	if lt.self[spanTx] < 150*time.Microsecond {
		t.Fatalf("the root span's self time %v lost its own sleeps", lt.self[spanTx])
	}
	unended := newTracer(time.Now())
	unended.begin(spanTx)
	if _, err := aggregate([]*tracer{unended}); err == nil {
		t.Fatal("an unended root span passed the check")
	}
	// A child left open inside a root that ends.
	orphan := newTracer(time.Now())
	root := orphan.begin(spanTx)
	orphan.begin(spanRead)
	orphan.end(root, 0)
	if _, err := aggregate([]*tracer{orphan}); err == nil {
		t.Fatal("an unended child span passed the check")
	}
	// Spans closed out of order.
	crossed := newTracer(time.Now())
	root = crossed.begin(spanTx)
	a := crossed.begin(spanRead)
	b := crossed.begin(spanUpdate)
	crossed.end(a, 0)
	crossed.end(b, 0)
	crossed.end(root, 0)
	if _, err := aggregate([]*tracer{crossed}); err == nil {
		t.Fatal("crossed spans passed the check")
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric
// catalog the runs print in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	defs, err := loadDefs("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", defs.EndToEnd, endToEnd, true)
	check("per_layer", defs.PerLayer, perLayer, false)

	var raw struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	b, _ := os.ReadFile("../BENCHMARK.json")
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, w := range raw.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	b := 0.1
	lower := jsonMetric{Name: "lat", Better: "lower", Bound: &b}
	old := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(old))
		for i, v := range old {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		cur  []float64
		want string
	}{
		{old, "within bound"},
		{shift(1.2), "WORSE"},
		{shift(0.8), "better"},
		// Beyond the old spread but winning only half the pairs.
		{[]float64{94, 101, 95, 100, 96, 99, 94, 101, 95, 100}, "within bound"},
		{[]float64{50, 150, 60, 140, 100, 100, 55, 145, 100, 100}, "unresolved"},
	} {
		if got := verdict(lower, old, c.cur); got != c.want {
			t.Errorf("verdict(%v) = %q, want %q", c.cur, got, c.want)
		}
	}
}

// tinyEngine is a small in-process stack for the audit tests.
func tinyEngine(t *testing.T) (*engine.DB, *sim.Timeline) {
	t.Helper()
	tl := sim.NewTimeline(2)
	arr, err := flash.New(flash.Config{
		Geometry: flash.Geometry{Chips: 2, BlocksPerChip: 32, PagesPerBlock: 32,
			PageSize: 4096, OOBSize: 256, Cell: flash.SLC},
		Timing: flash.SLCTiming(), StrictProgramOrder: true, MaxAppends: 8,
	}, tl)
	if err != nil {
		t.Fatal(err)
	}
	dev := noftl.Open(arr)
	if _, err := dev.CreateRegion(noftl.RegionConfig{Name: "data", Mode: noftl.ModeSLC,
		Scheme: core.NewScheme(2, 3), BlocksPerChip: 32, OverProvision: 0.10}); err != nil {
		t.Fatal(err)
	}
	db, err := engine.New(dev, engine.Options{PageSize: 4096, BufferFrames: 256, Timeline: tl, MVCC: true})
	if err != nil {
		t.Fatal(err)
	}
	return db, tl
}

// TestTPCBAuditFlagsCorruptSum serves a tiny TPC-B database in process,
// runs acked transactions through the benchmark's client, and checks the
// audit passes on a locking and a snapshot scan, then fails once one
// account is credited outside any acked transaction.
func TestTPCBAuditFlagsCorruptSum(t *testing.T) {
	db, tl := tinyEngine(t)
	w := tl.NewWorker()
	tables := map[string]*engine.Table{}
	for _, name := range []string{"tpcb_branch", "tpcb_teller", "tpcb_account", "tpcb_history"} {
		tb, err := db.CreateTable(name, "data")
		if err != nil {
			t.Fatal(err)
		}
		tables[name] = tb
	}
	tx, err := db.Begin(w)
	if err != nil {
		t.Fatal(err)
	}
	var acct core.RID
	for _, r := range []struct {
		table string
		n     int
		bal   uint64
	}{{"tpcb_branch", 1, 1000}, {"tpcb_teller", 10, 100}, {"tpcb_account", 50, 10}} {
		for i := 1; i <= r.n; i++ {
			tup := schCtl.New()
			schCtl.SetUint(tup, 0, uint64(i))
			schCtl.SetUint(tup, 2, r.bal)
			rid, err := tables[r.table].Insert(tx, tup)
			if err != nil {
				t.Fatal(err)
			}
			acct = rid
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	srv, err := server.New(server.Config{DB: db, Timeline: tl})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(5 * time.Second)
	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	m, base, err := scanTPCB(c, false)
	if err != nil {
		t.Fatal(err)
	}
	k := &tpcbClient{c: c, t: m, id: 1, rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 20; i++ {
		if err := k.runTx(); err != nil {
			t.Fatal(err)
		}
	}
	for _, snapshot := range []bool{false, true} {
		_, now, err := scanTPCB(c, snapshot)
		if err != nil {
			t.Fatal(err)
		}
		if err := auditTPCB("test", base, now, k.acked); err != nil {
			t.Fatalf("snapshot=%v: clean run failed the audit: %v", snapshot, err)
		}
	}

	tx, err = db.Begin(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := tables["tpcb_account"].AddField(tx, acct, schCtl.Offset(2), 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	_, now, err := scanTPCB(c, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := auditTPCB("test", base, now, k.acked); err == nil || !strings.Contains(err.Error(), "audit") {
		t.Fatalf("a corrupted account sum passed the audit (err=%v)", err)
	}
}

// TestTPCCAuditFlagsCorruptSum runs the TPC-C mix on the workload's own
// stack, then breaks in turn the order-count ledger, one order-line ring
// row, and W_YTD = Σ D_YTD by crediting one district outside any Payment.
func TestTPCCAuditFlagsCorruptSum(t *testing.T) {
	s, terms, err := setUpTPCC(3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if _, err := s.runTx(terms, 500, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.audit(); err != nil {
		t.Fatalf("clean run failed the audit: %v", err)
	}
	s.newOrders++
	if _, err := s.audit(); err == nil {
		t.Fatal("an order count off by one passed the audit")
	}
	s.newOrders--

	// An order line overwritten outside any NewOrder.
	k := terms[0]
	tx, err := s.db.Begin(k.w)
	if err != nil {
		t.Fatal(err)
	}
	stray := lineTuple(1, 1, 1, 1, 1)
	if err := s.ol.write(k, tx, 0, stray); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.audit(); err == nil || !strings.Contains(err.Error(), "last committed write") {
		t.Fatalf("a stray order line passed the audit (err=%v)", err)
	}
	s.ol.commit([]uint64{tupleHash(stray)})
	if _, err := s.audit(); err != nil {
		t.Fatalf("the ledgered order line failed the audit: %v", err)
	}

	tx, err = s.db.Begin(k.w)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := s.dist.Read(k.w, s.distRIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	schDist.AddUint(dt, 3, 1)
	if err := s.dist.Update(tx, s.distRIDs[0], dt); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.audit(); err == nil || !strings.Contains(err.Error(), "D_YTD") {
		t.Fatalf("a corrupted district YTD passed the audit (err=%v)", err)
	}
}

// tpccCounts runs the engine workload's set-up and a short measured
// phase, returning every count and simulated-time metric.
func tpccCounts(t *testing.T, seed int64) map[string]float64 {
	t.Helper()
	const n = 3000
	s, terms, err := setUpTPCC(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	util := s.utilization()
	ph, err := s.runTx(terms, n, true)
	if err != nil {
		t.Fatal(err)
	}
	if u := s.utilization(); u != util {
		t.Fatalf("utilization moved from %v to %v over the measured phase", util, u)
	}
	live, err := s.audit()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64(ph.after.sub(ph.before))
	out["sim_ns"] = float64(ph.simEnd - ph.simStart)
	out["sim_lat_p99_us"] = quantile(ph.simLat, 0.99)
	out["space_amp"] = float64(s.region.MappedPages()) * tpccPageSize / float64(live)
	return out
}

func TestEngineTPCCCountsRepeatPerSeed(t *testing.T) {
	a, b, c := tpccCounts(t, 5), tpccCounts(t, 5), tpccCounts(t, 6)
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %v then %v with the same seed", k, v, b[k])
		}
	}
	same := true
	for _, k := range []string{"flash.bytes_written", "flash.erases", "sim_ns", "sim_lat_p99_us"} {
		if a[k] == 0 {
			t.Errorf("%s is 0", k)
		}
		same = same && a[k] == c[k]
	}
	if same {
		t.Error("seeds 5 and 6 gave identical counts")
	}
}
