package workload

import (
	"fmt"
	"testing"

	"ipa/internal/engine"
	"ipa/internal/sim"
)

// The index benchmark reports *simulated* time as ns/op — the same time
// base every experiment in this repo uses ("derived from simulated
// time, never from wall-clock", internal/sim) — so its shape is
// independent of host core count. Wall-clock time is still emitted as
// wallns/op, and the tree's contention counters ride along as
// restarts/op and latchwaits/op.

// reportIndex emits the shared metric set for one measured interval.
func reportIndex(b *testing.B, simNs float64, before, after engine.IndexStats) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "wallns/op")
	b.ReportMetric(simNs/float64(b.N), "ns/op")
	b.ReportMetric(float64(after.Restarts-before.Restarts)/float64(b.N), "restarts/op")
	b.ReportMetric(float64(after.LatchWaits-before.LatchWaits)/float64(b.N), "latchwaits/op")
}

// BenchmarkIndexYCSB is the full-stack index benchmark: YCSB mixes
// through table + transaction + WAL + buffer pool, 1..16 real terminal
// goroutines. Insert percentages are what exercise the tree's write
// path (table updates leave RIDs, and therefore the index, untouched
// under IPA).
func BenchmarkIndexYCSB(b *testing.B) {
	mixes := []struct {
		name                 string
		read, update, insert int
		zipf                 bool
		snap                 bool
	}{
		{"readheavy-uniform", 95, 0, 5, false, false},
		{"readheavy-zipf", 95, 0, 5, true, false},
		{"balanced-uniform", 50, 25, 25, false, false},
		{"scanheavy-uniform", 0, 5, 5, false, false}, // remaining 90% scans
		// read80/scan20 with every scan resolving its tuples through the
		// MVCC version store at a pinned snapshot LSN.
		{"snapscan-zipf", 80, 0, 0, true, true},
	}
	for _, mix := range mixes {
		for _, workers := range []int{1, 4, 16} {
			name := fmt.Sprintf("mix=%s/workers=%d", mix.name, workers)
			b.Run(name, func(b *testing.B) {
				var db *engine.DB
				var tl *sim.Timeline
				if mix.snap {
					db, tl = newHTAPDB(b, 512, 8)
				} else {
					db, tl = newConcurrentDBShards(b, 512, 8)
				}
				y := NewYCSB(db, "main", 5000)
				y.ReadPct, y.UpdatePct, y.InsertPct = mix.read, mix.update, mix.insert
				y.Zipfian = mix.zipf
				y.SnapshotScan = mix.snap
				if err := y.Load(tl.NewWorker()); err != nil {
					b.Fatal(err)
				}
				start := tl.Horizon()
				terminals := make([]*sim.Worker, workers)
				for i := range terminals {
					terminals[i] = tl.NewWorker()
					terminals[i].SetNow(start)
				}
				before := y.Index().Stats()
				b.ResetTimer()
				res, err := RunParallel(y, terminals, b.N, 7)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if int(res.Transactions) != b.N {
					b.Fatalf("committed %d of %d", res.Transactions, b.N)
				}
				reportIndex(b, res.SimSeconds*1e9, before, y.Index().Stats())
			})
		}
	}
}
