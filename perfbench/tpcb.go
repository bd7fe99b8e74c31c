package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ipa/internal/client"
	"ipa/internal/wire"
)

// The TPC-B tables ipaserver preloads (-scale branches, 10 tellers and
// -accounts accounts per branch, an empty history): every row leads with
// its 1-based id, balances sit in field 2, and a history row is
// (aid, tid, bid, delta, seq).
const (
	tpcbScale    = 4
	tpcbClients  = 2
	tpcbWarmUpTx = 1000 // per client, part of every set-up

	// tpcbRetryBudget is how long a transaction's aborted attempts are
	// retried before it counts as failed. Retries are immediate: a
	// conflicting transaction holds its locks for one pipelined burst,
	// unless the server stalls inside it.
	tpcbRetryBudget = 5 * time.Second
)

// tpcbTables maps each row id to its RID, built by scanning the tables.
type tpcbTables struct {
	branch, teller, account []wire.RID
}

// tpcbSums are the audited totals: the three balance sums, and the sum
// of history deltas with the history row count.
type tpcbSums struct {
	branch, teller, account, history, rows uint64
}

// scanTPCB reads all four tables, through a snapshot transaction when
// snapshot is set (the follower-side audit), and returns the id→RID maps
// and the balance sums.
func scanTPCB(c *client.Conn, snapshot bool) (*tpcbTables, tpcbSums, error) {
	var sums tpcbSums
	scan := func(table string) ([]client.ScanEntry, error) { return c.Scan(table, 0) }
	if snapshot {
		tx, _, err := c.BeginSnapshot()
		if err != nil {
			return nil, sums, fmt.Errorf("begin snapshot: %w", err)
		}
		defer c.Abort(tx)
		scan = func(table string) ([]client.ScanEntry, error) { return c.SnapshotScan(tx, table, 0) }
	}
	t := &tpcbTables{}
	for _, tb := range []struct {
		name string
		rids *[]wire.RID
		sum  *uint64
	}{
		{"tpcb_branch", &t.branch, &sums.branch},
		{"tpcb_teller", &t.teller, &sums.teller},
		{"tpcb_account", &t.account, &sums.account},
	} {
		rows, err := scan(tb.name)
		if err != nil {
			return nil, sums, fmt.Errorf("scan %s: %w", tb.name, err)
		}
		*tb.rids = make([]wire.RID, len(rows))
		for _, e := range rows {
			id := schCtl.GetUint(e.Data, 0)
			if id == 0 || id > uint64(len(rows)) {
				return nil, sums, fmt.Errorf("%s: row id %d out of range 1..%d", tb.name, id, len(rows))
			}
			(*tb.rids)[id-1] = e.RID
			*tb.sum += schCtl.GetUint(e.Data, 2)
		}
	}
	hist, err := scan("tpcb_history")
	if err != nil {
		return nil, sums, fmt.Errorf("scan tpcb_history: %w", err)
	}
	for _, e := range hist {
		sums.history += schHistB.GetUint(e.Data, 3)
	}
	sums.rows = uint64(len(hist))
	if len(t.branch) == 0 || len(t.teller) != 10*len(t.branch) || len(t.account) == 0 {
		return nil, sums, fmt.Errorf("unexpected TPC-B cardinality: %d branches, %d tellers, %d accounts",
			len(t.branch), len(t.teller), len(t.account))
	}
	return t, sums, nil
}

// auditTPCB checks that every balance sum moved by exactly the acked
// deltas and that the history holds exactly the acked rows: Σ account =
// Σ teller = Σ branch growth = Σ acked history deltas.
func auditTPCB(where string, base, now, acked tpcbSums) error {
	got := tpcbSums{
		branch: now.branch - base.branch, teller: now.teller - base.teller,
		account: now.account - base.account, history: now.history - base.history,
		rows: now.rows - base.rows,
	}
	if got != acked {
		return fmt.Errorf("TPC-B audit on %s: growth %+v, acked %+v", where, got, acked)
	}
	return nil
}

// tpcbClient is one closed-loop terminal on its own connection.
type tpcbClient struct {
	c   *client.Conn
	t   *tpcbTables
	rng *rand.Rand
	tr  *tracer
	id  uint64
	seq uint64

	acked                        tpcbSums
	lat                          latencyLog // from first attempt to COMMIT ack
	attempted, committed, failed int64
	attempts                     int64
}

// retryable reports whether an attempt's error left nothing behind on
// the server: a lock conflict or poisoned transaction was aborted
// there, and BUSY is an admission rejection.
func retryable(err error) bool {
	return wire.IsTransient(err) ||
		errors.Is(err, wire.ErrLockConflict) || errors.Is(err, wire.ErrTxPoisoned)
}

// commitResolved reports whether COMMIT's error still means the server
// executed it (committing or aborting). BUSY skipped it; a transport
// error leaves the outcome unknown.
func commitResolved(err error) bool {
	var se *wire.StatusError
	return err == nil || (errors.As(err, &se) && !errors.Is(err, wire.ErrBusy))
}

// run runs n transactions back to back.
func (k *tpcbClient) run(n int) error {
	for i := 0; i < n; i++ {
		if err := k.runTx(); err != nil {
			return err
		}
	}
	return nil
}

// runTx runs one Account_Update to completion, retrying aborted
// attempts with the same inputs.
func (k *tpcbClient) runTx() error {
	aid := k.rng.Intn(len(k.t.account))
	tid := k.rng.Intn(len(k.t.teller))
	bid := tid / 10
	delta := uint64(k.rng.Intn(16_000_000) + 1)
	k.seq++
	seq := k.id<<40 | k.seq

	k.attempted++
	start := time.Now()
	root := k.tr.begin(spanTx)
	defer k.tr.end(root, 0)
	for {
		k.attempts++
		err := k.attempt(aid, tid, bid, delta, seq)
		if err == nil {
			break
		}
		if !retryable(err) {
			return fmt.Errorf("client %d: %w", k.id, err)
		}
		if time.Since(start) > tpcbRetryBudget {
			k.failed++
			return nil
		}
	}
	k.lat.add(start)
	k.committed++
	k.acked.branch += delta
	k.acked.teller += delta
	k.acked.account += delta
	k.acked.history += delta
	k.acked.rows++
	return nil
}

// attempt is one try of the transaction in the two pipelined round
// trips a TPC-B terminal makes: the three balance reads, then BEGIN,
// three ADDFIELD deltas, the history INSERT and COMMIT.
func (k *tpcbClient) attempt(aid, tid, bid int, delta, seq uint64) error {
	c := k.c
	arid, trid, brid := k.t.account[aid], k.t.teller[tid], k.t.branch[bid]

	rs := k.tr.begin(spanClientRead)
	reads := [3]*client.Pending{
		c.ReadAsync("tpcb_account", arid),
		c.ReadAsync("tpcb_teller", trid),
		c.ReadAsync("tpcb_branch", brid),
	}
	var readErr error
	for _, p := range reads {
		f, err := p.Wait()
		if err == nil {
			r := wire.NewReader(f.Payload)
			if tup := r.Blob(); r.Err() != nil || len(tup) != schCtl.Size() {
				err = fmt.Errorf("malformed READ reply (%d bytes)", len(f.Payload))
			}
		}
		if err != nil && readErr == nil {
			readErr = fmt.Errorf("balance read: %w", err)
		}
	}
	k.tr.end(rs, 0)
	if readErr != nil {
		return readErr
	}

	h := schHistB.New()
	schHistB.SetUint(h, 0, uint64(aid+1))
	schHistB.SetUint(h, 1, uint64(tid+1))
	schHistB.SetUint(h, 2, uint64(bid+1))
	schHistB.SetUint(h, 3, delta)
	schHistB.SetUint(h, 4, seq)
	off := schCtl.Offset(2)

	cs := k.tr.begin(spanClientCommit)
	defer k.tr.end(cs, 0)
	tx := c.NewTxID()
	pend := [6]*client.Pending{
		c.BeginAsync(tx),
		c.AddFieldAsync(tx, "tpcb_account", arid, off, delta),
		c.AddFieldAsync(tx, "tpcb_teller", trid, off, delta),
		c.AddFieldAsync(tx, "tpcb_branch", brid, off, delta),
		c.InsertAsync(tx, "tpcb_history", h),
		c.CommitAsync(tx),
	}
	var firstErr, commitErr error
	for i, p := range pend {
		_, err := p.Wait()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if i == len(pend)-1 {
			commitErr = err
		}
	}
	if firstErr != nil && !commitResolved(commitErr) {
		// COMMIT never ran, so the transaction may still hold its
		// no-wait locks server-side; roll it back before retrying.
		if err := c.Abort(tx); err != nil && !errors.Is(err, wire.ErrTxClosed) {
			return fmt.Errorf("abort after %v: %w", firstErr, err)
		}
	}
	return firstErr
}
