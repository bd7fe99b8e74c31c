package repl

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/workload"
)

// TestCommitDrivenShipping guards the shipper doorbell against lost
// wake-ups. The heartbeat is 5 s, so a COMMIT that fails to wake a
// caught-up shipper waits seconds for its quorum instead of a round
// trip: 200 sequential commits must all be acked well inside one
// heartbeat. Records no COMMIT waits on — an engine-level aborted
// transaction — must still reach every follower within one heartbeat.
func TestCommitDrivenShipping(t *testing.T) {
	const heartbeat = 5 * time.Second
	cl, err := NewCluster(ClusterConfig{
		N:    3,
		Node: Config{HeartbeatInterval: heartbeat, ElectionTimeout: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	lead := cl.Members[0]
	tp := workload.NewTPCB(lead.DB, "data", 1, 100)
	if err := tp.Load(lead.TL.NewWorker()); err != nil {
		t.Fatalf("preload: %v", err)
	}
	pool := cl.Pool(client.Options{RequestTimeout: 10 * time.Second})
	defer pool.Close()
	ct := workload.NewClusterTPCB()
	if err := ct.Init(pool); err != nil {
		t.Fatalf("init: %v", err)
	}

	const commits = 200
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	for i := 0; i < commits; i++ {
		if _, err := ct.RunOne(pool, rng); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if took := time.Since(start); took > heartbeat {
			t.Fatalf("%d quorum-acked commits took %v, more than one %v heartbeat: "+
				"commits are waiting for the heartbeat, not ringing the shipper", i+1, took, heartbeat)
		}
	}
	// Every commit rings both shippers; rings landing while a shipper
	// waits on an ack coalesce into one wake-up, hence the slack.
	if s := lead.Node.Stats(); s.ShipWakeups < commits/2 {
		t.Fatalf("ship_wakeups_commit = %d after %d commits, want ≥ %d", s.ShipWakeups, commits, commits/2)
	}

	// Let both shippers drain to idle (consuming any coalesced ring), so
	// only the heartbeat can ship what comes next.
	waitApplied(t, cl, lead.DB.WAL().Head(), time.Now().Add(heartbeat))
	time.Sleep(100 * time.Millisecond)

	tbl, err := lead.DB.Table("tpcb_history")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := lead.DB.Begin(lead.TL.NewWorker())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(tx, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, cl, lead.DB.WAL().Head(), time.Now().Add(heartbeat+2*time.Second))
}

// waitApplied waits until every follower has applied the leader's log
// up to head.
func waitApplied(t *testing.T, cl *Cluster, head core.LSN, deadline time.Time) {
	t.Helper()
	for _, m := range cl.Members[1:] {
		for m.Node.AppliedLSN() < head {
			if time.Now().After(deadline) {
				t.Fatalf("member %d applied %d, want %d within a heartbeat", m.ID, m.Node.AppliedLSN(), head)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestWaitCommittedZeroAllocs guards the quorum-horizon computation,
// which runs on every commit wait and every ack: an already-committed
// LSN must cost no allocation.
func TestWaitCommittedZeroAllocs(t *testing.T) {
	db, _, err := NewMemberDB(1, 16, 1024, 64, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const acked = core.LSN(10)
	n := &Node{
		cfg:   Config{NodeID: 1, Peers: map[uint64]string{1: "", 2: "", 3: ""}, CommitWait: time.Second},
		db:    db,
		role:  RoleLeader,
		acks:  map[uint64]peerAck{2: {lsn: acked}, 3: {lsn: acked}},
		bells: []chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)},
	}
	n.cond = sync.NewCond(&n.mu)
	if err := n.WaitCommitted(acked); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := n.WaitCommitted(acked); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WaitCommitted on a committed LSN allocates %.2f/op, want 0", allocs)
	}
}
