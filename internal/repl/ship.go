package repl

import (
	"encoding/json"
	"errors"
	"time"

	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/sim"
	"ipa/internal/wal"
	"ipa/internal/wire"
)

// The shipping side of replication. The LEADER dials each follower and
// pushes batches read from its own log's contiguously-published
// horizon; the follower never pulls. A bounded window of batches is
// kept in flight per follower so shipping overlaps the follower's
// replay without letting a slow follower absorb unbounded leader
// memory.
//
// Shipping is event-driven. A caught-up shipper blocks until a COMMIT
// waiting for quorum rings its doorbell (WaitCommitted), its next
// heartbeat falls due, or the leadership ends. Records no COMMIT waits
// on (preload, aborts, promotion CLRs) ship at that heartbeat.

// sleepOr sleeps for d, returning false early if stop closes.
func sleepOr(stop chan struct{}, d time.Duration) bool {
	select {
	case <-stop:
		return false
	case <-time.After(d):
		return true
	}
}

func (n *Node) shipClientOpts() client.Options {
	opts := n.cfg.Client
	opts.DialTimeout = n.cfg.HeartbeatInterval * 4
	opts.RequestTimeout = n.cfg.CommitWait
	opts.MaxRetries = 1
	return opts
}

// runShipper owns one follower for one leadership: dial, stream,
// re-dial on error, until deposed or stopped.
func (n *Node) runShipper(term, peerID uint64, addr string, stop, bell chan struct{}) {
	defer n.shipWG.Done()
	w := n.cfg.TL.NewWorker()
	for {
		select {
		case <-stop:
			return
		default:
		}
		if !n.leading(term) {
			return
		}
		c, err := client.Dial(addr, n.shipClientOpts())
		if err != nil {
			n.setConnected(peerID, false)
			if !sleepOr(stop, n.cfg.HeartbeatInterval) {
				return
			}
			continue
		}
		n.shipTo(term, peerID, c, w, stop, bell)
		c.Close()
		n.setConnected(peerID, false)
		if !sleepOr(stop, n.cfg.HeartbeatInterval/2) {
			return
		}
	}
}

type inflightBatch struct {
	p     *client.Pending
	last  core.LSN
	count int
}

// shipTo runs one connection's stream. It returns on any error (the
// outer loop re-dials), on step-down, or on stop.
func (n *Node) shipTo(term, peerID uint64, c *client.Conn, w *sim.Worker, stop, bell chan struct{}) {
	log := n.db.WAL()

	// Handshake: learn the follower's position and verify its log is a
	// prefix of ours (same term at its head). A longer log or a term
	// mismatch means a divergent suffix from a dead leadership — the
	// whole point of the check — and is repaired by snapshot.
	f, err := c.Do(wire.OpReplHello, helloReq{NodeID: n.cfg.NodeID, Term: term}.encode())
	if err != nil {
		return
	}
	h, err := decodeHelloResp(f.Payload)
	if err != nil {
		return
	}
	if h.Term > term {
		n.observeTerm(h.Term)
		return
	}
	cursor := h.Head + 1
	if h.Head > log.Head() || (h.Head > 0 && n.termAt(h.Head) != h.LastTerm) {
		n.logf("repl: node %d diverges at %d (term %d vs ours %d), resyncing",
			peerID, h.Head, h.LastTerm, n.termAt(h.Head))
		if !n.sendSnapshot(term, peerID, c, w, &cursor) {
			return
		}
	} else {
		n.setAck(peerID, h.Head, h.AppendedBytes, true)
	}

	var window []inflightBatch
	lastSend := time.Now()
	heartbeat := time.NewTimer(n.cfg.HeartbeatInterval)
	defer heartbeat.Stop()
	heartbeatDue := false
	for {
		select {
		case <-stop:
			return
		default:
		}
		if !n.leading(term) {
			return
		}

		// Fill the window from the published horizon.
		for len(window) < n.cfg.MaxInflight {
			recs, rerr := log.ReadFrom(cursor, n.cfg.BatchRecords, n.cfg.BatchBytes)
			if errors.Is(rerr, wal.ErrTruncated) {
				// The follower fell behind the truncated tail. Drain
				// the window, then resync by snapshot.
				for _, b := range window {
					b.p.Wait()
				}
				window = window[:0]
				if !n.sendSnapshot(term, peerID, c, w, &cursor) {
					return
				}
				continue
			}
			if rerr != nil {
				n.logf("repl: read from %d: %v", cursor, rerr)
				return
			}
			if len(recs) == 0 {
				break // caught up
			}
			payload := n.appendPayload(term, recs)
			window = append(window, inflightBatch{
				p:     c.DoAsync(wire.OpReplAppend, payload),
				last:  recs[len(recs)-1].LSN,
				count: len(recs),
			})
			cursor = recs[len(recs)-1].LSN + 1
			lastSend = time.Now()
		}

		if len(window) == 0 {
			if !heartbeatDue {
				// Caught up. The doorbell's one-slot buffer keeps a ring
				// that lands between the empty read above and here.
				select {
				case <-stop:
					return
				case <-bell:
					n.shipWakeups.Add(1)
				case <-heartbeat.C:
					heartbeatDue = true
				}
				continue
			}
			// The timer fired and the fill above found nothing to ship.
			// Unless a batch went out meanwhile, send an empty append to
			// assert leadership and refresh the follower's election
			// timer; either way, re-arm for the next interval.
			heartbeatDue = false
			if idle := time.Since(lastSend); idle < n.cfg.HeartbeatInterval {
				heartbeat.Reset(n.cfg.HeartbeatInterval - idle)
				continue
			}
			hf, herr := c.Do(wire.OpReplAppend, n.appendPayload(term, nil))
			if herr != nil {
				return
			}
			if !n.handleAck(term, peerID, c, w, &cursor, hf.Payload, 0) {
				return
			}
			n.heartbeats.Add(1)
			lastSend = time.Now()
			heartbeat.Reset(n.cfg.HeartbeatInterval)
			continue
		}

		b := window[0]
		window = window[1:]
		af, werr := b.p.Wait()
		if werr != nil {
			return
		}
		if !n.handleAck(term, peerID, c, w, &cursor, af.Payload, b.count) {
			return
		}
		// handleAck may have restarted the stream via snapshot; any
		// batches still in flight are for the dead cursor — drain and
		// drop them, the next fill re-reads from the new cursor.
		if len(window) > 0 && cursor <= window[0].last {
			for _, wb := range window {
				wb.p.Wait()
			}
			window = window[:0]
		}
	}
}

// handleAck processes one REPL_APPEND response. Returns false when the
// connection (or leadership) is done.
func (n *Node) handleAck(term, peerID uint64, c *client.Conn, w *sim.Worker, cursor *core.LSN, payload []byte, count int) bool {
	a, err := decodeAck(payload)
	if err != nil {
		return false
	}
	if a.Term > term {
		n.observeTerm(a.Term)
		return false
	}
	if a.NeedSnap {
		return n.sendSnapshot(term, peerID, c, w, cursor)
	}
	n.setAck(peerID, a.Head, a.AppendedBytes, true)
	if count > 0 {
		n.batchesShipped.Add(1)
		n.recordsShipped.Add(uint64(count))
	}
	return true
}

// sendSnapshot captures a stop-the-world engine image and installs it
// on the follower, restarting the stream at PrimeLSN+1.
func (n *Node) sendSnapshot(term, peerID uint64, c *client.Conn, w *sim.Worker, cursor *core.LSN) bool {
	snap, err := n.db.CaptureSnapshot(w)
	if err != nil {
		n.logf("repl: snapshot capture: %v", err)
		return false
	}
	img, err := json.Marshal(snap)
	if err != nil {
		n.logf("repl: snapshot marshal: %v", err)
		return false
	}
	f, err := c.Do(wire.OpReplSnap, encodeSnap(term, n.cfg.NodeID, n.epochsCopy(), img))
	if err != nil {
		n.logf("repl: snapshot send to node %d: %v", peerID, err)
		return false
	}
	a, err := decodeAck(f.Payload)
	if err != nil {
		return false
	}
	if a.Term > term {
		n.observeTerm(a.Term)
		return false
	}
	if a.NeedSnap || a.Head != snap.PrimeLSN {
		n.logf("repl: node %d snapshot install landed at %d, want %d", peerID, a.Head, snap.PrimeLSN)
		return false
	}
	*cursor = snap.PrimeLSN + 1
	n.setAck(peerID, a.Head, a.AppendedBytes, true)
	n.snapsSent.Add(1)
	n.logf("repl: node %d resynced by snapshot at lsn %d (%d pages)",
		peerID, snap.PrimeLSN, len(snap.Pages))
	return true
}
