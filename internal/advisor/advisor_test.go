package advisor

import (
	"math/rand"
	"testing"

	"ipa/internal/core"
	"ipa/internal/wal"
)

func tpccProfile() *Profile {
	// TPC-C-like: most flushes change 3 bytes, some 6-9, a tail larger.
	p := &Profile{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		r := rng.Intn(100)
		switch {
		case r < 60:
			p.Add(3, 10)
		case r < 85:
			p.Add(6, 12)
		case r < 95:
			p.Add(9, 12)
		default:
			p.Add(40+rng.Intn(60), 12)
		}
	}
	return p
}

func TestRecommendPerformance(t *testing.T) {
	rec, err := RecommendScheme(tpccProfile(), Options{Goal: Performance, MaxN: 4, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// 70th percentile of the distribution lands at 6 bytes.
	if rec.Scheme.M < 3 || rec.Scheme.M > 9 {
		t.Errorf("M = %d, want in [3,9]", rec.Scheme.M)
	}
	if rec.Scheme.N < 2 || rec.Scheme.N > 4 {
		t.Errorf("N = %d", rec.Scheme.N)
	}
	if rec.CoveredFraction < 0.6 {
		t.Errorf("covered = %v", rec.CoveredFraction)
	}
	if rec.SpaceOverhead <= 0 || rec.SpaceOverhead > 0.1 {
		t.Errorf("space overhead = %v", rec.SpaceOverhead)
	}
	if rec.Rationale == "" {
		t.Error("no rationale")
	}
}

func TestRecommendGoalsDiffer(t *testing.T) {
	p := tpccProfile()
	perf, _ := RecommendScheme(p, Options{Goal: Performance, MaxN: 4, PageSize: 4096})
	lon, _ := RecommendScheme(p, Options{Goal: Longevity, MaxN: 4, PageSize: 4096})
	spc, _ := RecommendScheme(p, Options{Goal: Space, MaxN: 4, PageSize: 4096})
	if lon.Scheme.N != 4 {
		t.Errorf("longevity N = %d, want maxN", lon.Scheme.N)
	}
	if !(spc.Scheme.M <= perf.Scheme.M && perf.Scheme.M <= lon.Scheme.M) {
		t.Errorf("M ordering violated: space %d, perf %d, longevity %d",
			spc.Scheme.M, perf.Scheme.M, lon.Scheme.M)
	}
	if !(spc.SpaceOverhead <= lon.SpaceOverhead) {
		t.Errorf("space goal costs more than longevity: %v vs %v",
			spc.SpaceOverhead, lon.SpaceOverhead)
	}
}

func TestRecommendEmptyProfile(t *testing.T) {
	if _, err := RecommendScheme(&Profile{}, Options{Goal: Performance, MaxN: 3, PageSize: 4096}); err == nil {
		t.Error("empty profile accepted")
	}
}

func TestRecommendClamps(t *testing.T) {
	p := &Profile{}
	for i := 0; i < 100; i++ {
		p.Add(4000, 12) // huge updates
	}
	rec, err := RecommendScheme(p, Options{Goal: Longevity, MaxN: 0, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Scheme.M != core.MaxM {
		t.Errorf("M = %d, want clamped to %d", rec.Scheme.M, core.MaxM)
	}
	if rec.Scheme.N != 1 {
		t.Errorf("N = %d, want clamped maxN 1", rec.Scheme.N)
	}
}

func TestFromLog(t *testing.T) {
	l := wal.NewLog(0)
	l.Append(wal.Record{Type: wal.RecBegin, TxID: 1})
	// Two updates to page 7 within one tx: 1 + 2 changed bytes.
	l.Append(wal.Record{Type: wal.RecUpdate, TxID: 1, Page: 7,
		Before: []byte{0, 0, 0, 0}, After: []byte{1, 0, 0, 0}})
	l.Append(wal.Record{Type: wal.RecUpdate, TxID: 1, Page: 7,
		Before: []byte{1, 0, 0, 0}, After: []byte{1, 2, 3, 0}})
	l.Append(wal.Record{Type: wal.RecCommit, TxID: 1})
	// Second tx, different page, longer after-image.
	l.Append(wal.Record{Type: wal.RecBegin, TxID: 2})
	l.Append(wal.Record{Type: wal.RecUpdate, TxID: 2, Page: 9,
		Before: []byte{5}, After: []byte{5, 6, 7}})
	l.Append(wal.Record{Type: wal.RecCommit, TxID: 2})

	p := FromLog(l)
	if p.Len() != 2 {
		t.Fatalf("samples = %d, want 2", p.Len())
	}
	// Page 7 accumulated 3 changed bytes; page 9 saw 2 appended bytes.
	seen := map[int]bool{}
	for _, n := range p.Net {
		seen[n] = true
	}
	if !seen[3] || !seen[2] {
		t.Errorf("net samples = %v", p.Net)
	}
	// The profile feeds RecommendScheme end-to-end.
	if _, err := RecommendScheme(p, Options{Goal: Space, MaxN: 3, PageSize: 4096}); err != nil {
		t.Fatal(err)
	}
}

func TestGoalString(t *testing.T) {
	if Performance.String() != "performance" || Longevity.String() != "longevity" || Space.String() != "space" {
		t.Error("goal strings wrong")
	}
}
