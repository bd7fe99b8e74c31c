package main

import (
	"ipa/internal/core"
	"ipa/internal/engine"
)

type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd and perLayer are the metric catalog; BENCHMARK.json lists the
// same names, units and bounds (a test keeps them in step).
var endToEnd = []metricDef{
	{"tps", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"flash_write_bytes_per_tx", "B", "lower", 0.1},
	{"erases_per_ktx", "count", "lower", 0.1},
	{"rss_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	// Unsteady as a gate on a shared 2-vCPU host: a slow stretch of the
	// host spreads cluster-tpcb's p99 beyond 0.25 across ten runs.
	{name: "lat_p99_us", unit: "us", better: "lower"},
	{name: "sim_tps", unit: "1/s", better: "higher"},
	{name: "sim_lat_p99_us", unit: "us", better: "lower"},
	{name: "space_amp", unit: "ratio", better: "lower"},
	{name: "fail_ratio", unit: "ratio", better: "lower"},
	{name: "client.read_rtt_mean_us", unit: "us", better: "lower"},
	{name: "client.commit_rtt_mean_us", unit: "us", better: "lower"},
	{name: "client.commit_rtt_p99_us", unit: "us", better: "lower"},
	{name: "client.attempts_per_tx", unit: "count", better: "lower"},
	{name: "server.read_us", unit: "us", better: "lower"},
	{name: "server.addfield_us", unit: "us", better: "lower"},
	{name: "server.insert_us", unit: "us", better: "lower"},
	{name: "server.commit_us", unit: "us", better: "lower"},
	{name: "server.requests_per_tx", unit: "count", better: "lower"},
	{name: "server.busy_rejected_per_ktx", unit: "count", better: "lower"},
	{name: "wire.overhead_us", unit: "us", better: "lower"},
	{name: "engine.lock_conflicts_per_ktx", unit: "count", better: "lower"},
	{name: "engine.read_us", unit: "us", better: "lower"},
	{name: "engine.read_sim_us", unit: "us", better: "lower"},
	{name: "engine.update_us", unit: "us", better: "lower"},
	{name: "index.lookups_per_tx", unit: "count", better: "lower"},
	{name: "index.lookup_us", unit: "us", better: "lower"},
	{name: "index.lookup_sim_us", unit: "us", better: "lower"},
	{name: "index.restarts_per_klookup", unit: "count", better: "lower"},
	{name: "buffer.hit_ratio", unit: "ratio", better: "higher"},
	{name: "buffer.misses_per_tx", unit: "count", better: "lower"},
	{name: "buffer.eviction_flushes_per_tx", unit: "count", better: "lower"},
	{name: "buffer.cleaner_flushes_per_tx", unit: "count", better: "lower"},
	{name: "store.delta_flush_share", unit: "ratio", better: "higher"},
	{name: "store.delta_apply_per_fetch", unit: "ratio", better: "lower"},
	{name: "store.net_bytes_per_flush", unit: "B", better: "lower"},
	{name: "wal.flushes_per_commit", unit: "count", better: "lower"},
	{name: "wal.records_per_tx", unit: "count", better: "lower"},
	{name: "wal.reclaims_per_ktx", unit: "count", better: "lower"},
	{name: "engine.checkpoints_per_ktx", unit: "count", better: "lower"},
	{name: "wal.commit_us", unit: "us", better: "lower"},
	{name: "noftl.oop_writes_per_tx", unit: "count", better: "lower"},
	{name: "noftl.delta_writes_per_tx", unit: "count", better: "higher"},
	{name: "noftl.gc_migrations_per_tx", unit: "count", better: "lower"},
	{name: "noftl.gc_sim_share", unit: "ratio", better: "lower"},
	{name: "noftl.write_amp", unit: "ratio", better: "lower"},
	{name: "flash.reads_per_tx", unit: "count", better: "lower"},
	{name: "flash.read_bytes_per_tx", unit: "B", better: "lower"},
	{name: "flash.programs_per_tx", unit: "count", better: "lower"},
	{name: "flash.delta_programs_per_tx", unit: "count", better: "higher"},
	{name: "repl.lag_records_p50", unit: "count", better: "lower"},
	{name: "repl.records_per_batch", unit: "count", better: "higher"},
	{name: "repl.batches_per_commit", unit: "count", better: "lower"},
	{name: "repl.follower_append_us", unit: "us", better: "lower"},
	{name: "runtime.allocs_per_tx", unit: "count", better: "lower"},
	{name: "trace.untraced_tps", unit: "1/s", better: "higher"},
	{name: "trace.traced_tps", unit: "1/s", better: "higher"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.root_us", unit: "us", better: "lower"},
	{name: "trace.bench_self_us", unit: "us", better: "lower"},
}

// counters flattens the engine.Stats fields the per-layer metrics are
// built from, so a measured phase is the difference of two snapshots.
type counters map[string]float64

func countersOf(s engine.Stats) counters {
	r, st := s.Regions["data"], s.Stores["data"]
	c := counters{
		"flash.reads":          float64(s.Flash.Reads),
		"flash.read_bytes":     float64(s.Flash.BytesRead),
		"flash.programs":       float64(s.Flash.Programs),
		"flash.delta_programs": float64(s.Flash.DeltaPrograms),
		"flash.erases":         float64(s.Flash.Erases),
		"flash.bytes_written":  float64(s.Flash.BytesWritten),
		"buffer.hits":          float64(s.Pool.Hits),
		"buffer.misses":        float64(s.Pool.Misses),
		"buffer.eviction_fl":   float64(s.Pool.EvictionFlush),
		"buffer.cleaner_fl":    float64(s.Pool.CleanerFlushes),
		"noftl.oop":            float64(r.OutOfPlaceWrites),
		"noftl.delta":          float64(r.DeltaWrites),
		"noftl.gc_migrations":  float64(r.GCPageMigrations),
		"noftl.io_time":        float64(r.ReadTime + r.WriteTime + r.DeltaTime + r.GCTime),
		"noftl.gc_time":        float64(r.GCTime),
		"store.fetches":        float64(st.Fetches),
		"store.delta_apply":    float64(st.DeltaApply),
		"store.flush_delta":    float64(st.FlushesDelta),
		"store.flush_oop":      float64(st.FlushesOOP),
		"wal.flushes":          float64(s.LogFlushes),
		"wal.records":          float64(s.WAL.Reservations),
		"wal.reclaims":         float64(s.LogReclaims),
		"engine.checkpoints":   float64(s.Checkpoints),
		"engine.lock_conflict": float64(s.Aborts.LockConflicts),
	}
	if st.NetBytes != nil {
		c["store.net_bytes"] = st.NetBytes.Mean() * float64(st.NetBytes.Count())
		c["store.update_flushes"] = float64(st.NetBytes.Count())
	}
	for _, ix := range s.Indexes {
		c["index.lookups"] += float64(ix.Lookups)
		c["index.restarts"] += float64(ix.Restarts)
	}
	return c
}

func (c counters) sub(base counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// deviceLayers fills the per-layer metrics that come from engine counter
// deltas over tx transactions, commits of which wrote: buffer, store,
// WAL, NoFTL and flash. netBytes says whether the store's update-size
// histogram was readable (in process only).
func (r *report) deviceLayers(d counters, tx, commits float64, netBytes bool) {
	r.layer("engine.lock_conflicts_per_ktx", 1000*d["engine.lock_conflict"]/tx)
	r.layer("buffer.hit_ratio", ratio(d["buffer.hits"], d["buffer.hits"]+d["buffer.misses"]))
	r.layer("buffer.misses_per_tx", d["buffer.misses"]/tx)
	r.layer("buffer.eviction_flushes_per_tx", d["buffer.eviction_fl"]/tx)
	r.layer("buffer.cleaner_flushes_per_tx", d["buffer.cleaner_fl"]/tx)
	r.layer("store.delta_flush_share", ratio(d["store.flush_delta"], d["store.flush_delta"]+d["store.flush_oop"]))
	r.layer("store.delta_apply_per_fetch", ratio(d["store.delta_apply"], d["store.fetches"]))
	r.layer("wal.flushes_per_commit", ratio(d["wal.flushes"], commits))
	r.layer("wal.records_per_tx", d["wal.records"]/tx)
	r.layer("wal.reclaims_per_ktx", 1000*d["wal.reclaims"]/tx)
	r.layer("engine.checkpoints_per_ktx", 1000*d["engine.checkpoints"]/tx)
	r.layer("noftl.oop_writes_per_tx", d["noftl.oop"]/tx)
	r.layer("noftl.delta_writes_per_tx", d["noftl.delta"]/tx)
	r.layer("noftl.gc_migrations_per_tx", d["noftl.gc_migrations"]/tx)
	r.layer("noftl.gc_sim_share", ratio(d["noftl.gc_time"], d["noftl.io_time"]))
	r.layer("flash.reads_per_tx", d["flash.reads"]/tx)
	r.layer("flash.read_bytes_per_tx", d["flash.read_bytes"]/tx)
	r.layer("flash.programs_per_tx", d["flash.programs"]/tx)
	r.layer("flash.delta_programs_per_tx", d["flash.delta_programs"]/tx)
	if netBytes {
		// The paper's Gross_Written ÷ Net_Changed: a page per
		// out-of-place write plus one delta-record per delta write,
		// over the bytes the update flushes actually changed.
		gross := d["noftl.oop"]*tpccPageSize + d["noftl.delta"]*float64(core.NewScheme(2, 3).RecordSize())
		r.layer("store.net_bytes_per_flush", ratio(d["store.net_bytes"], d["store.update_flushes"]))
		r.layer("noftl.write_amp", ratio(gross, d["store.net_bytes"]))
	}
}

// engineLayers fills the in-process engine's per-layer metrics: the
// counter deltas plus the spans around Table, Index and Tx calls.
func (r *report) engineLayers(d counters, tx, commits float64, lt layerTimes) {
	r.deviceLayers(d, tx, commits, true)
	r.layer("engine.read_us", lt.meanUs(spanRead))
	r.layer("engine.read_sim_us", lt.meanSimUs(spanRead))
	r.layer("engine.update_us", lt.meanUs(spanUpdate))
	r.layer("wal.commit_us", lt.meanUs(spanCommit))
	r.layer("index.lookups_per_tx", d["index.lookups"]/tx)
	r.layer("index.lookup_us", lt.meanUs(spanLookup))
	r.layer("index.lookup_sim_us", lt.meanSimUs(spanLookup))
	r.layer("index.restarts_per_klookup", 1000*ratio(d["index.restarts"], d["index.lookups"]))
	for _, n := range []spanName{spanRead, spanUpdate, spanCommit, spanLookup} {
		r.rec.Samples[n.String()] = lt.count[n]
	}
}
