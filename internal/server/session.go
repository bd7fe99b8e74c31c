package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/sim"
	"ipa/internal/wire"
)

// session serves one connection on a single goroutine: it reads frames
// through a buffered reader and executes each one, serially and in
// arrival order, before reading the next. Serial execution is what
// makes pipelined transactions sound: the ops of a BEGIN..COMMIT batch
// land in exactly the order the client wrote them.
//
// Replies go out through a buffered writer that is flushed only when
// the loop is about to read from the socket (see sock.Read), so the
// replies to a pipelined burst leave in one write, and a reply never
// waits behind a read that may block. Pipelining is bounded by the
// socket buffers and the read buffer: the loop reads no further ahead
// than the frames it is executing.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	w    *sim.Worker

	drainOnce sync.Once

	txs    map[uint64]*engine.Tx
	poison map[uint64]string // txid → first failed op, set until COMMIT/ABORT
	tables map[string]*engine.Table
}

func newSession(s *Server, conn net.Conn) *session {
	var w *sim.Worker
	if s.cfg.Timeline != nil {
		w = s.cfg.Timeline.NewWorker()
	}
	sess := &session{
		srv:    s,
		conn:   conn,
		w:      w,
		txs:    make(map[uint64]*engine.Tx),
		poison: make(map[uint64]string),
		tables: make(map[string]*engine.Table),
	}
	sess.br = bufio.NewReaderSize(sock{sess}, 32<<10)
	sess.bw = bufio.NewWriterSize(sock{sess}, 32<<10)
	return sess
}

// errDraining ends a session's read loop once the server drains.
var errDraining = errors.New("server draining")

// sock is the session's socket as its buffered reader and writer see
// it. Both buffers call it only when they must touch the socket, which
// is where the deadlines and the reply flush belong.
type sock struct{ s *session }

// Read runs only when the read buffer cannot supply the next frame, so
// the read may block: it first flushes the buffered replies, then arms
// the idle ReadTimeout for this one socket read. The draining check
// follows the deadline update so a concurrent startDrain cannot be
// overwritten unseen. Frames already buffered still execute.
func (k sock) Read(p []byte) (int, error) {
	s := k.s
	if err := s.flush(); err != nil {
		return 0, fmt.Errorf("write: %w", err)
	}
	s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.ReadTimeout))
	if s.srv.draining.Load() {
		return 0, errDraining
	}
	return s.conn.Read(p)
}

// Write arms WriteTimeout for each socket write: the explicit flush in
// Read, and the flushes bufio.Writer makes on its own when a large
// reply fills it, which may come long after the last explicit one.
func (k sock) Write(p []byte) (int, error) {
	k.s.conn.SetWriteDeadline(time.Now().Add(k.s.srv.cfg.WriteTimeout))
	return k.s.conn.Write(p)
}

// startDrain unblocks a pending socket read so the session stops
// accepting new frames; frames already read still execute.
func (s *session) startDrain() {
	s.drainOnce.Do(func() {
		s.conn.SetReadDeadline(time.Now())
	})
}

func (s *session) run() {
	defer s.finish()
	for {
		f, err := wire.ReadFrame(s.br, s.srv.cfg.MaxFrame)
		if err != nil {
			if err != io.EOF && !s.srv.draining.Load() {
				s.srv.cfg.Logf("server: session %v: %v", s.conn.RemoteAddr(), err)
			}
			return
		}
		s.handle(f)
	}
}

// finish aborts transactions the client left open (disconnect or
// drain), flushes and closes the connection, and unregisters.
func (s *session) finish() {
	for id, tx := range s.txs {
		delete(s.txs, id)
		if err := tx.Abort(); err == nil {
			s.srv.orphansAborted.Add(1)
			if _, poisoned := s.poison[id]; poisoned {
				s.srv.poisonedAborts.Add(1)
			}
		}
	}
	if err := s.flush(); err != nil && !s.srv.draining.Load() {
		s.srv.cfg.Logf("server: write %v: %v", s.conn.RemoteAddr(), err)
	}
	s.conn.Close()
	s.srv.removeSession(s)
}

// flush writes the buffered replies, counting the flushes that carry
// any. A failed write sticks in bw, so every later flush reports it.
func (s *session) flush() error {
	if s.bw.Buffered() > 0 {
		s.srv.flushes.Add(1)
	}
	return s.bw.Flush()
}

// reply buffers one response frame. A write error sticks in bw and
// surfaces at the next flush, which ends the session; until then
// execution continues so frames already read still resolve (commit or
// abort) server-side.
func (s *session) reply(id uint64, status byte, payload []byte) {
	_ = wire.WriteFrame(s.bw, id, status, payload)
}

// handle admits one request through the global in-flight semaphore,
// executes it, responds, and records its service time. Ops addressing a
// transaction already open on this session bypass admission: the
// transaction was admitted at BEGIN, and BUSY-rejecting one op of a
// pipelined BEGIN..COMMIT burst would otherwise commit the remainder —
// a half-applied transaction. With the exemption, BUSY can only answer
// ops that touch no open transaction state (BEGIN itself, reads, or
// stragglers after a rejected BEGIN, which fail StatusTxClosed).
func (s *session) handle(f wire.Frame) {
	start := time.Now()
	admitted := false
	if !s.txExempt(f) && !sysExempt(f.Kind) {
		if !s.srv.admit() {
			s.srv.busyRejected.Add(1)
			s.reply(f.ID, wire.StatusBusy, errPayload("server at capacity, retry"))
			return
		}
		admitted = true
	}
	s.srv.requests.Add(1)
	status, payload := s.exec(f)
	if admitted {
		<-s.srv.inflight
	}
	s.reply(f.ID, status, payload)
	s.srv.observe(f.Kind, time.Since(start))
}

// txExempt reports whether f is a tx-scoped op whose transaction is
// already open on this session (every such payload leads with the txid).
func (s *session) txExempt(f wire.Frame) bool {
	switch f.Kind {
	case wire.OpCommit, wire.OpAbort, wire.OpInsert,
		wire.OpUpdate, wire.OpUpdateField, wire.OpAddField, wire.OpDelete,
		wire.OpSnapshotRead, wire.OpSnapshotScan:
	default:
		return false
	}
	if len(f.Payload) < 8 {
		return false
	}
	_, open := s.txs[binary.BigEndian.Uint64(f.Payload[:8])]
	return open
}

// sysExempt reports whether an op bypasses admission entirely:
// handshakes and replication traffic. Starving a REPL_APPEND behind
// client load would stall the very stream that lets commits ack.
func sysExempt(kind byte) bool {
	switch kind {
	case wire.OpHello, wire.OpReplHello, wire.OpReplAppend,
		wire.OpReplSnap, wire.OpVoteReq:
		return true
	}
	return false
}

// errPayload encodes an error response body.
func errPayload(msg string) []byte {
	return wire.NewBuilder(len(msg) + 4).Blob([]byte(msg)).Bytes()
}

// fail maps an engine or decode error onto its wire status.
func fail(err error) (byte, []byte) {
	var status byte
	switch {
	case errors.Is(err, engine.ErrClosed):
		status = wire.StatusClosed
	case errors.Is(err, engine.ErrLockConflict):
		status = wire.StatusLockConflict
	case errors.Is(err, engine.ErrTxClosed):
		status = wire.StatusTxClosed
	case errors.Is(err, engine.ErrNoTable):
		status = wire.StatusNoTable
	case errors.Is(err, engine.ErrNoTuple):
		status = wire.StatusNoTuple
	case errors.Is(err, wire.ErrBadRequest),
		errors.Is(err, engine.ErrMVCCDisabled),
		errors.Is(err, engine.ErrReadOnlyTx),
		errors.Is(err, engine.ErrNotSnapshot):
		status = wire.StatusBadRequest
	default:
		status = wire.StatusInternal
	}
	return status, errPayload(err.Error())
}

func (s *session) table(name string) (*engine.Table, error) {
	if t, ok := s.tables[name]; ok {
		return t, nil
	}
	t, err := s.srv.db.Table(name)
	if err != nil {
		return nil, err
	}
	s.tables[name] = t
	return t, nil
}

// tx resolves a transaction id, reporting whether it exists and whether
// an earlier pipelined op already poisoned it.
func (s *session) tx(id uint64) (*engine.Tx, bool, bool) {
	tx, ok := s.txs[id]
	if !ok {
		return nil, false, false
	}
	_, poisoned := s.poison[id]
	return tx, true, poisoned
}

// exec runs one decoded request and returns the response status and
// payload. Mutating ops that fail poison their transaction: every later
// op of that transaction answers StatusTxPoisoned without executing,
// and its COMMIT aborts instead — so a client that pipelines
// BEGIN..COMMIT blindly can never commit a half-applied transaction.
func (s *session) exec(f wire.Frame) (byte, []byte) {
	// In a cluster, only the leader runs read-write transactions and
	// latest-committed reads (a follower's heap holds applied-but-
	// uncommitted stream data that only MVCC snapshot reads may see).
	// Everything else — snapshot ops, stats, handshakes, replication —
	// is served by any node.
	if rep := s.srv.cfg.Repl; rep != nil && !rep.IsLeader() {
		switch f.Kind {
		case wire.OpBegin, wire.OpCommit, wire.OpAbort, wire.OpInsert,
			wire.OpRead, wire.OpUpdate, wire.OpUpdateField, wire.OpAddField,
			wire.OpDelete, wire.OpScan:
			addr := rep.LeaderAddr()
			return wire.StatusRedirect, wire.NewBuilder(len(addr) + 4).String(addr).Bytes()
		}
	}

	r := wire.NewReader(f.Payload)
	switch f.Kind {
	case wire.OpPing:
		return wire.StatusOK, nil

	case wire.OpHello:
		if len(f.Payload) != 1 {
			return wire.StatusBadRequest, errPayload("malformed HELLO")
		}
		if f.Payload[0] != wire.ProtoVersion {
			return wire.StatusBadRequest, errPayload(fmt.Sprintf(
				"protocol version mismatch: client speaks %d, server speaks %d",
				f.Payload[0], wire.ProtoVersion))
		}
		return wire.StatusOK, nil

	case wire.OpReplHello, wire.OpReplAppend, wire.OpReplSnap, wire.OpVoteReq:
		if s.srv.cfg.Repl == nil {
			return wire.StatusBadRequest, errPayload("replication not configured on this server")
		}
		return s.srv.cfg.Repl.HandleFrame(f.Kind, f.Payload)

	case wire.OpBegin:
		id := r.Uint64()
		if err := r.Err(); err != nil {
			return fail(err)
		}
		if _, open := s.txs[id]; open {
			return wire.StatusBadRequest, errPayload("txid already open on this connection")
		}
		tx, err := s.srv.db.Begin(s.w)
		if err != nil {
			return fail(err)
		}
		s.txs[id] = tx
		return wire.StatusOK, nil

	case wire.OpCommit, wire.OpAbort:
		id := r.Uint64()
		if err := r.Err(); err != nil {
			return fail(err)
		}
		tx, ok, poisoned := s.tx(id)
		if !ok {
			return fail(engine.ErrTxClosed)
		}
		delete(s.txs, id)
		if poisoned {
			reason := s.poison[id]
			delete(s.poison, id)
			if tx.Abort() == nil {
				s.srv.poisonedAborts.Add(1)
			}
			if f.Kind == wire.OpAbort {
				return wire.StatusOK, nil
			}
			return wire.StatusTxPoisoned, errPayload("aborted: " + reason)
		}
		var err error
		if f.Kind == wire.OpCommit {
			err = tx.Commit()
			if err == nil && s.srv.cfg.Repl != nil {
				// Semi-synchronous commit: the record is durable
				// locally, but the client's ack waits for a quorum so
				// the commit survives this node's death. On failure
				// the commit MAY still survive (the error says so);
				// the safe direction, since the client retries reads.
				if werr := s.srv.cfg.Repl.WaitCommitted(tx.CommitLSN()); werr != nil {
					return wire.StatusInternal, errPayload(
						"commit durable locally but not quorum-acknowledged: " + werr.Error())
				}
			}
		} else {
			err = tx.Abort()
		}
		if err != nil {
			return fail(err)
		}
		return wire.StatusOK, nil

	case wire.OpInsert:
		id, name, data := r.Uint64(), r.String(), r.Blob()
		if err := r.Err(); err != nil {
			return fail(err)
		}
		tx, ok, poisoned := s.tx(id)
		if !ok {
			return fail(engine.ErrTxClosed)
		}
		if poisoned {
			return wire.StatusTxPoisoned, errPayload(s.poison[id])
		}
		tbl, err := s.table(name)
		if err != nil {
			return s.poisonTx(id, err)
		}
		rid, err := tbl.Insert(tx, data)
		if err != nil {
			return s.poisonTx(id, err)
		}
		return wire.StatusOK, wire.NewBuilder(10).RID(netRID(rid)).Bytes()

	case wire.OpRead:
		name, rid := r.String(), r.RID()
		if err := r.Err(); err != nil {
			return fail(err)
		}
		tbl, err := s.table(name)
		if err != nil {
			return fail(err)
		}
		data, err := tbl.Read(s.w, coreRID(rid))
		if err != nil {
			return fail(err)
		}
		return wire.StatusOK, wire.NewBuilder(len(data) + 4).Blob(data).Bytes()

	case wire.OpUpdate:
		id, name, rid, data := r.Uint64(), r.String(), r.RID(), r.Blob()
		if err := r.Err(); err != nil {
			return fail(err)
		}
		return s.mutate(id, name, func(tx *engine.Tx, tbl *engine.Table) error {
			return tbl.Update(tx, coreRID(rid), data)
		})

	case wire.OpUpdateField:
		id, name, rid := r.Uint64(), r.String(), r.RID()
		off, val := r.Uint32(), r.Blob()
		if err := r.Err(); err != nil {
			return fail(err)
		}
		return s.mutate(id, name, func(tx *engine.Tx, tbl *engine.Table) error {
			return tbl.UpdateField(tx, coreRID(rid), int(off), val)
		})

	case wire.OpAddField:
		id, name, rid := r.Uint64(), r.String(), r.RID()
		off, delta := r.Uint32(), r.Uint64()
		if err := r.Err(); err != nil {
			return fail(err)
		}
		return s.mutate(id, name, func(tx *engine.Tx, tbl *engine.Table) error {
			return tbl.AddField(tx, coreRID(rid), int(off), delta)
		})

	case wire.OpDelete:
		id, name, rid := r.Uint64(), r.String(), r.RID()
		if err := r.Err(); err != nil {
			return fail(err)
		}
		return s.mutate(id, name, func(tx *engine.Tx, tbl *engine.Table) error {
			return tbl.Delete(tx, coreRID(rid))
		})

	case wire.OpScan:
		name, limit := r.String(), r.Uint32()
		if err := r.Err(); err != nil {
			return fail(err)
		}
		tbl, err := s.table(name)
		if err != nil {
			return fail(err)
		}
		// Responses are size-capped: a scan that would exceed the frame
		// limit fails instead of building a frame the client's ReadFrame
		// must reject (which would tear down the whole connection).
		budget := s.srv.cfg.MaxFrame - 256 // frame header plus slack
		b := wire.NewBuilder(4096)
		b.Uint32(0) // patched with the count below
		var count uint32
		var truncated bool
		err = tbl.Scan(s.w, func(rid core.RID, tuple []byte) bool {
			if len(b.Bytes())+14+len(tuple) > budget {
				truncated = true
				return false
			}
			b.RID(netRID(rid)).Blob(tuple)
			count++
			return limit == 0 || count < limit
		})
		if err != nil {
			return fail(err)
		}
		if truncated {
			return wire.StatusBadRequest, errPayload(fmt.Sprintf(
				"scan response would exceed the %d-byte frame limit; retry with a smaller limit",
				s.srv.cfg.MaxFrame))
		}
		payload := b.Bytes()
		payload[0] = byte(count >> 24)
		payload[1] = byte(count >> 16)
		payload[2] = byte(count >> 8)
		payload[3] = byte(count)
		return wire.StatusOK, payload

	case wire.OpBeginSnapshot:
		id := r.Uint64()
		if err := r.Err(); err != nil {
			return fail(err)
		}
		if _, open := s.txs[id]; open {
			return wire.StatusBadRequest, errPayload("txid already open on this connection")
		}
		tx, err := s.srv.db.BeginSnapshot(s.w)
		if err != nil {
			return fail(err)
		}
		s.txs[id] = tx
		return wire.StatusOK, wire.NewBuilder(8).Uint64(uint64(tx.SnapshotLSN())).Bytes()

	case wire.OpSnapshotRead:
		id, name, rid := r.Uint64(), r.String(), r.RID()
		if err := r.Err(); err != nil {
			return fail(err)
		}
		tx, ok, poisoned := s.tx(id)
		if !ok {
			return fail(engine.ErrTxClosed)
		}
		if poisoned {
			return wire.StatusTxPoisoned, errPayload(s.poison[id])
		}
		tbl, err := s.table(name)
		if err != nil {
			return fail(err)
		}
		// Snapshot reads never poison: a miss (ErrNoTuple) or decode slip
		// leaves the snapshot transaction usable, because reads mutate
		// nothing and cannot half-apply.
		data, err := tbl.ReadSnapshot(tx, coreRID(rid))
		if err != nil {
			return fail(err)
		}
		return wire.StatusOK, wire.NewBuilder(len(data) + 4).Blob(data).Bytes()

	case wire.OpSnapshotScan:
		id, name, limit := r.Uint64(), r.String(), r.Uint32()
		if err := r.Err(); err != nil {
			return fail(err)
		}
		tx, ok, poisoned := s.tx(id)
		if !ok {
			return fail(engine.ErrTxClosed)
		}
		if poisoned {
			return wire.StatusTxPoisoned, errPayload(s.poison[id])
		}
		tbl, err := s.table(name)
		if err != nil {
			return fail(err)
		}
		budget := s.srv.cfg.MaxFrame - 256
		b := wire.NewBuilder(4096)
		b.Uint32(0)
		var count uint32
		var truncated bool
		err = tbl.ScanSnapshot(tx, func(rid core.RID, tuple []byte) bool {
			if len(b.Bytes())+14+len(tuple) > budget {
				truncated = true
				return false
			}
			b.RID(netRID(rid)).Blob(tuple)
			count++
			return limit == 0 || count < limit
		})
		if err != nil {
			return fail(err)
		}
		if truncated {
			return wire.StatusBadRequest, errPayload(fmt.Sprintf(
				"scan response would exceed the %d-byte frame limit; retry with a smaller limit",
				s.srv.cfg.MaxFrame))
		}
		payload := b.Bytes()
		binary.BigEndian.PutUint32(payload[:4], count)
		return wire.StatusOK, payload

	case wire.OpStats:
		doc, err := s.srv.StatsDocument()
		if err != nil {
			return fail(err)
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			return fail(err)
		}
		return wire.StatusOK, wire.NewBuilder(len(raw) + 4).Blob(raw).Bytes()

	default:
		return wire.StatusBadRequest, errPayload("unknown opcode")
	}
}

// mutate runs one tx-scoped write op with the shared poison checks.
func (s *session) mutate(id uint64, name string, op func(*engine.Tx, *engine.Table) error) (byte, []byte) {
	tx, ok, poisoned := s.tx(id)
	if !ok {
		return fail(engine.ErrTxClosed)
	}
	if poisoned {
		return wire.StatusTxPoisoned, errPayload(s.poison[id])
	}
	tbl, err := s.table(name)
	if err != nil {
		return s.poisonTx(id, err)
	}
	if err := op(tx, tbl); err != nil {
		return s.poisonTx(id, err)
	}
	return wire.StatusOK, nil
}

// poisonTx records the first failure of a transaction's op and returns
// that op's own status (the poison surfaces on later ops and COMMIT).
func (s *session) poisonTx(id uint64, err error) (byte, []byte) {
	if _, ok := s.poison[id]; !ok {
		s.poison[id] = err.Error()
	}
	return fail(err)
}

func netRID(r core.RID) wire.RID  { return wire.RID{Page: uint64(r.Page), Slot: r.Slot} }
func coreRID(r wire.RID) core.RID { return core.RID{Page: core.PageID(r.Page), Slot: r.Slot} }
