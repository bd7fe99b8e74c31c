package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ipa/internal/client"
)

// wireTarget is a running ipaserver deployment: one standalone process,
// or a 3-node cluster whose leader takes the load.
type wireTarget struct {
	procs     []*serverProc
	leader    *serverProc
	followers []*serverProc
}

func (t *wireTarget) stop() { stopAll(t.procs) }

// startStandalone starts one ipaserver preloaded with TPC-B at scale 4.
func startStandalone(binDir string) (*wireTarget, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	p, err := startServer(binDir, addrs[0], addrs[1], "-scale", strconv.Itoa(tpcbScale))
	if err != nil {
		return nil, err
	}
	return &wireTarget{procs: []*serverProc{p}, leader: p}, nil
}

// startCluster starts a 3-member cluster; node 1 bootstraps, preloads
// TPC-B at scale 4 and leads. It returns once every follower has applied
// the leader's whole log, preload included.
func startCluster(binDir string) (*wireTarget, error) {
	const n = 3
	addrs, err := freeAddrs(2 * n)
	if err != nil {
		return nil, err
	}
	var peers []string
	for i := 0; i < n; i++ {
		peers = append(peers, fmt.Sprintf("%d=%s", i+1, addrs[i]))
	}
	t := &wireTarget{}
	for i := 0; i < n; i++ {
		p, err := startServer(binDir, addrs[i], addrs[n+i], "-node-id", strconv.Itoa(i+1),
			"-peers", strings.Join(peers, ","), "-scale", strconv.Itoa(tpcbScale))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.procs = append(t.procs, p)
	}
	t.leader, t.followers = t.procs[0], t.procs[1:]
	ld, err := t.leader.stats()
	if err != nil {
		t.stop()
		return nil, err
	}
	if ld.Repl == nil || ld.Repl.Role != "leader" {
		t.stop()
		return nil, fmt.Errorf("node 1 is not the leader after bootstrap: %+v", ld.Repl)
	}
	if err := t.waitCaughtUp(ld.Repl.HeadLSN); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// waitCaughtUp waits until every follower has applied the log up to lsn.
func (t *wireTarget) waitCaughtUp(lsn uint64) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, f := range t.followers {
		for {
			st, err := f.stats()
			if err != nil {
				return err
			}
			if st.Repl != nil && st.Repl.AppliedLSN >= lsn {
				break
			}
			if err := f.alive(); err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower %s stuck below LSN %d", f.addr, lsn)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// leadership snapshots every member's term and election count; any
// change across the measured phase fails the run.
func (t *wireTarget) leadership() ([]string, error) {
	var out []string
	for _, p := range t.procs {
		st, err := p.stats()
		if err != nil {
			return nil, err
		}
		if st.Repl != nil {
			out = append(out, fmt.Sprintf("%s term=%d elections=%d leader=%d",
				st.Repl.Role, st.Repl.Term, st.Repl.Elections, st.Repl.LeaderID))
		}
	}
	return out, nil
}

// wireSession is one set-up deployment with its clients connected and
// the tables' baseline sums taken.
type wireSession struct {
	target  *wireTarget
	clients []*tpcbClient
	base    tpcbSums
	elect   []string
}

func (s *wireSession) close() {
	for _, k := range s.clients {
		k.c.Close()
	}
	s.target.stop()
}

// setUpWire starts a deployment, scans the tables for the id→RID maps
// and the baseline sums, and connects the clients.
func setUpWire(cfg runConfig, start func(string) (*wireTarget, error)) (*wireSession, error) {
	target, err := start(cfg.binDir)
	if err != nil {
		return nil, err
	}
	s := &wireSession{target: target}
	opts := client.Options{RequestTimeout: 30 * time.Second}
	for i := 0; i < tpcbClients; i++ {
		c, err := client.Dial(target.leader.addr, opts)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, &tpcbClient{
			c: c, id: uint64(i + 1), rng: rand.New(rand.NewSource(cfg.seed*7919 + int64(i))),
		})
	}
	tables, base, err := scanTPCB(s.clients[0].c, false)
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = base
	for _, k := range s.clients {
		k.t = tables
	}
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, err
	}
	if s.elect, err = target.leadership(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warmUp runs a fixed number of transactions per client so the buffer
// cleaner and the flash collector are running before measurement. Only
// the acked sums survive it, because the audit baseline predates it.
func (s *wireSession) warmUp() error {
	_, err := s.drive(tpcbWarmUpTx)
	return err
}

// drive starts a phase: it resets the clients' counters and logs, runs
// n transactions on every client, and returns the wall time until the
// last one finished.
func (s *wireSession) drive(n int) (time.Duration, error) {
	start := time.Now()
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for i, k := range s.clients {
		k.lat.reset()
		k.committed, k.attempted, k.failed, k.attempts = 0, 0, 0, 0
		wg.Add(1)
		go func(i int, k *tpcbClient) {
			defer wg.Done()
			errs[i] = k.run(n)
		}(i, k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return time.Since(start), s.target.leader.alive()
}

func (s *wireSession) totals() (committed, attempted, failed, attempts int64) {
	for _, k := range s.clients {
		committed += k.committed
		attempted += k.attempted
		failed += k.failed
		attempts += k.attempts
	}
	return
}

// phaseStats is every member's /stats at one instant.
func (s *wireSession) phaseStats() ([]*statsDoc, error) {
	docs := make([]*statsDoc, len(s.target.procs))
	for i, p := range s.target.procs {
		d, err := p.stats()
		if err != nil {
			return nil, err
		}
		docs[i] = d
	}
	return docs, nil
}

// runWireTPCB is the wire-tpcb workload: TPC-B against one ipaserver.
func runWireTPCB(cfg runConfig) (*report, error) {
	return runWire(cfg, workloadWireTPCB, startStandalone, 7000)
}

// runClusterTPCB is the cluster-tpcb workload: the same traffic against
// the leader of a 3-node cluster.
func runClusterTPCB(cfg runConfig) (*report, error) {
	return runWire(cfg, workloadClusterTPCB, startCluster, 1200)
}

// runWire measures a fixed number of transactions, txPerSecond per
// second of --seconds (about that long on a 2-core x86 host), so every
// run does the same work and the device counts and peak memory compare
// like for like.
func runWire(cfg runConfig, name string, start func(string) (*wireTarget, error), txPerSecond int) (*report, error) {
	var setups []float64
	var s *wireSession
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = setUpWire(cfg, start); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	rep := newReport(cfg, name)
	rep.setup(setups)

	perClient := txPerSecond * cfg.seconds / tpcbClients
	var (
		untraced    float64 // tps of the untraced half of a traced run
		allocsPerTx float64 // of the benchmark process, untraced half
		lags        []float64
	)
	if cfg.trace {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		wall, err := s.drive(perClient / 2)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms)
		c, _, _, _ := s.totals()
		untraced = float64(c) / wall.Seconds()
		allocsPerTx = float64(ms.Mallocs-m0) / float64(c)
		t0 := time.Now()
		for _, k := range s.clients {
			k.tr = newTracer(t0)
		}
		perClient -= perClient / 2
	}
	before, err := s.phaseStats()
	if err != nil {
		return nil, err
	}
	var wall time.Duration
	if cfg.trace {
		// Replication lag is sampled from the leader's /stats during the
		// traced half only: polling costs the server time.
		stopLag := make(chan struct{})
		lagDone := make(chan []float64)
		go func() { lagDone <- sampleLag(s.target.leader, stopLag) }()
		wall, err = s.drive(perClient)
		close(stopLag)
		lags = <-lagDone
	} else {
		wall, err = s.drive(perClient)
	}
	if err != nil {
		return nil, err
	}
	after, err := s.phaseStats()
	if err != nil {
		return nil, err
	}
	committed, attempted, failed, attempts := s.totals()
	if committed == 0 {
		return nil, fmt.Errorf("no transaction committed in %v", wall)
	}
	rep.attempted, rep.failed = attempted, failed
	rep.rec.MeasuredS = wall.Seconds()

	if err := s.auditAll(); err != nil {
		return nil, err
	}
	var rss int64
	for _, p := range s.target.procs {
		rss += p.peakRSS()
	}
	rep.rssMB(rss)

	logs := make([]*latencyLog, len(s.clients))
	tracers := make([]*tracer, len(s.clients))
	for i, k := range s.clients {
		logs[i], tracers[i] = &k.lat, k.tr
	}
	tx := float64(committed)
	d := countersOf(after[0].Engine).sub(countersOf(before[0].Engine))
	rep.e2e(wall, logs, tx, d["flash.bytes_written"], d["flash.erases"])
	if !cfg.trace {
		return rep, nil
	}
	lt, err := aggregate(tracers)
	if err != nil {
		return nil, err
	}
	rep.deviceLayers(d, tx, tx, false)
	rep.layer("runtime.allocs_per_tx", allocsPerTx)
	rep.layer("client.attempts_per_tx", float64(attempts)/tx)
	rep.wireLayers(before, after, lt, tx, lags)
	rep.traceOverhead(untraced, tx/wall.Seconds(), lt)
	return rep, nil
}

// opDelta is the total service time (µs) and count of one wire op over a
// phase, summed over the given members' /stats: Δ(mean×count), Δcount.
func opDelta(before, after []*statsDoc, op string) (sumUs, count float64) {
	for i := range after {
		a, b := before[i].Ops[op], after[i].Ops[op]
		sumUs += float64(b.MeanNs*int64(b.Count)-a.MeanNs*int64(a.Count)) / 1e3
		count += float64(b.Count - a.Count)
	}
	return sumUs, count
}

// wireLayers fills the client, server, wire and replication metrics of a
// traced phase from the client spans and the members' /stats before and
// after it (index 0 is the leader).
func (r *report) wireLayers(before, after []*statsDoc, lt layerTimes, tx float64, lags []float64) {
	r.layer("client.read_rtt_mean_us", lt.meanUs(spanClientRead))
	r.layer("client.commit_rtt_mean_us", lt.meanUs(spanClientCommit))
	r.layer("client.commit_rtt_p99_us", quantile(lt.commitUs, 0.99))
	r.rec.Samples["client.commit_rtt_p99_us"] = lt.count[spanClientCommit]

	var serverUs float64
	for _, op := range []struct{ wire, metric string }{
		{"READ", "server.read_us"}, {"ADDFIELD", "server.addfield_us"},
		{"INSERT", "server.insert_us"}, {"COMMIT", "server.commit_us"},
		{"BEGIN", ""}, {"ABORT", ""},
	} {
		sum, n := opDelta(before[:1], after[:1], op.wire)
		serverUs += sum
		if op.metric != "" {
			r.layer(op.metric, ratio(sum, n))
		}
	}
	// What the client waited beyond the server's own service time:
	// network, framing and the session queues.
	clientUs := float64(lt.total[spanClientRead]+lt.total[spanClientCommit]) / 1e3
	r.layer("wire.overhead_us", (clientUs-serverUs)/tx)
	sb, sa := before[0].Server, after[0].Server
	r.layer("server.requests_per_tx", float64(sa.Requests-sb.Requests)/tx)
	r.layer("server.busy_rejected_per_ktx", 1000*float64(sa.BusyRejected-sb.BusyRejected)/tx)

	rb, ra := before[0].Repl, after[0].Repl
	if ra == nil || rb == nil {
		return
	}
	batches := float64(ra.BatchesSent - rb.BatchesSent)
	r.layer("repl.records_per_batch", ratio(float64(ra.RecordsSent-rb.RecordsSent), batches))
	r.layer("repl.batches_per_commit", batches/tx)
	r.layer("repl.lag_records_p50", quantile(lags, 0.5))
	r.rec.Samples["repl.lag_records_p50"] = len(lags)
	sum, n := opDelta(before[1:], after[1:], "REPL_APPEND")
	r.layer("repl.follower_append_us", ratio(sum, n))
}

// sampleLag polls the leader's per-follower replication lag until stop
// closes; a standalone server has no followers and yields no samples.
func sampleLag(leader *serverProc, stop <-chan struct{}) []float64 {
	var lags []float64
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return lags
		case <-tick.C:
		}
		st, err := leader.stats()
		if err != nil || st.Repl == nil {
			continue
		}
		for _, p := range st.Repl.Peers {
			lags = append(lags, float64(p.LagRecords))
		}
	}
}

// auditAll checks leadership stayed put and runs the TPC-B audit on the
// leader and, for a cluster, on one follower once it has caught up, via
// a snapshot scan.
func (s *wireSession) auditAll() error {
	elect, err := s.target.leadership()
	if err != nil {
		return err
	}
	if fmt.Sprint(elect) != fmt.Sprint(s.elect) {
		return fmt.Errorf("leadership changed during the measured phase: %v → %v", s.elect, elect)
	}
	var acked tpcbSums
	for _, k := range s.clients {
		acked.branch += k.acked.branch
		acked.teller += k.acked.teller
		acked.account += k.acked.account
		acked.history += k.acked.history
		acked.rows += k.acked.rows
	}
	_, now, err := scanTPCB(s.clients[0].c, false)
	if err != nil {
		return err
	}
	if err := auditTPCB("the leader", s.base, now, acked); err != nil {
		return err
	}
	if len(s.target.followers) == 0 {
		return nil
	}
	ld, err := s.target.leader.stats()
	if err != nil {
		return err
	}
	f := s.target.followers[0]
	if err := (&wireTarget{followers: []*serverProc{f}}).waitCaughtUp(ld.Repl.CommitLSN); err != nil {
		return err
	}
	c, err := client.Dial(f.addr, client.Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	_, fnow, err := scanTPCB(c, true)
	if err != nil {
		return fmt.Errorf("follower %s: %w", f.addr, err)
	}
	return auditTPCB("follower "+f.addr, s.base, fnow, acked)
}
