package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"ipa/internal/client"
	"ipa/internal/core"
	"ipa/internal/engine"
	"ipa/internal/server"
	"ipa/internal/wire"
)

// rawFrame is one request of a hand-built burst.
type rawFrame struct {
	kind    byte
	payload []byte
}

// encodeBurst encodes frames with request ids 1, 2, … into one buffer,
// so a single Write puts the whole burst on the wire.
func encodeBurst(t *testing.T, frames []rawFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, f := range frames {
		if err := wire.WriteFrame(&buf, uint64(i+1), f.kind, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// dialRaw opens a plain TCP connection that speaks frames by hand.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// readReplies reads n replies and requires each to be StatusOK and to
// answer request ids 1..n in order.
func readReplies(t *testing.T, conn net.Conn, n int) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 1; i <= n; i++ {
		f, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if f.ID != uint64(i) || f.Kind != wire.StatusOK {
			t.Fatalf("reply %d = id %d status %d (%q), want id %d OK",
				i, f.ID, f.Kind, f.Payload, i)
		}
	}
}

func txPayload(tx uint64) []byte { return wire.NewBuilder(8).Uint64(tx).Bytes() }

func updateFieldPayload(tx uint64, table string, rid wire.RID, val uint64) []byte {
	return wire.NewBuilder(64).Uint64(tx).String(table).RID(rid).Uint32(0).Blob(le64(val)).Bytes()
}

// TestSessionRepliesBeforePartialFrame: a whole frame followed by half
// of the next must be answered while the session waits for the rest —
// the session flushes its replies before any socket read that may
// block.
func TestSessionRepliesBeforePartialFrame(t *testing.T) {
	db, tl := newStack(t)
	srv, addr, _ := startServer(t, db, tl, server.Config{})
	defer srv.Shutdown(5 * time.Second)

	burst := encodeBurst(t, []rawFrame{{kind: wire.OpPing}, {kind: wire.OpPing}})
	split := len(burst)/2 + 5 // frame 1 and 5 bytes of frame 2's 13
	conn := dialRaw(t, addr)
	if _, err := conn.Write(burst[:split]); err != nil {
		t.Fatal(err)
	}
	readReplies(t, conn, 1)
	if _, err := conn.Write(burst[split:]); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(conn, 0)
	if err != nil || f.ID != 2 || f.Kind != wire.StatusOK {
		t.Fatalf("reply to the completed frame = %+v, %v", f, err)
	}
}

// TestLargeReplyAfterIdleGap: with WriteTimeout shorter than an idle
// gap, a SCAN reply larger than the 32 KiB write buffer must still
// arrive intact. bufio.Writer flushes such a reply on its own, so a
// write deadline set only at the last explicit flush, before the gap,
// would already have expired.
func TestLargeReplyAfterIdleGap(t *testing.T) {
	db, tl := newStack(t)
	if _, err := db.CreateTable("big", "data"); err != nil {
		t.Fatal(err)
	}
	srv, addr, _ := startServer(t, db, tl, server.Config{WriteTimeout: 50 * time.Millisecond})
	defer srv.Shutdown(5 * time.Second)

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const tuples, size = 120, 400 // ~48 KiB of scan payload
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tuples; i++ {
		tuple := bytes.Repeat([]byte{byte(i)}, size)
		if _, err := c.Insert(tx, "big", tuple); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(tx); err != nil {
		t.Fatal(err)
	}

	time.Sleep(4 * 50 * time.Millisecond) // the idle gap, four WriteTimeouts long

	entries, err := c.Scan("big", 0)
	if err != nil {
		t.Fatalf("scan after idle gap: %v", err)
	}
	if len(entries) != tuples {
		t.Fatalf("scan returned %d tuples, want %d", len(entries), tuples)
	}
	seen := make(map[byte]bool)
	for _, e := range entries {
		if len(e.Data) != size || !bytes.Equal(e.Data, bytes.Repeat(e.Data[:1], size)) {
			t.Fatalf("tuple %v corrupted: %d bytes", e.RID, len(e.Data))
		}
		seen[e.Data[0]] = true
	}
	if len(seen) != tuples {
		t.Fatalf("scan returned %d distinct tuples, want %d", len(seen), tuples)
	}
}

// adminFlushes reads the flushes counter from the admin /stats endpoint.
func adminFlushes(t *testing.T, adminAddr string) uint64 {
	t.Helper()
	resp, err := http.Get("http://" + adminAddr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Server server.Counters `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Server.Flushes
}

// TestPipelinedBurstOneFlush: a BEGIN..COMMIT burst that arrives in one
// write is answered with one flush, counted by the admin flushes
// counter.
func TestPipelinedBurstOneFlush(t *testing.T) {
	db, tl := newStack(t)
	erid := seedTuple(t, db, "t")
	rid := wire.RID{Page: uint64(erid.Page), Slot: erid.Slot}
	srv, addr, adminAddr := startServer(t, db, tl, server.Config{})
	defer srv.Shutdown(5 * time.Second)

	conn := dialRaw(t, addr)
	if _, err := conn.Write(encodeBurst(t, []rawFrame{{kind: wire.OpPing}})); err != nil {
		t.Fatal(err)
	}
	readReplies(t, conn, 1)
	before := adminFlushes(t, adminAddr)

	const tx = 1
	burst := encodeBurst(t, []rawFrame{
		{wire.OpBegin, txPayload(tx)},
		{wire.OpUpdateField, updateFieldPayload(tx, "t", rid, 5)},
		{wire.OpAddField, wire.NewBuilder(64).Uint64(tx).String("t").RID(rid).Uint32(0).Uint64(2).Bytes()},
		{wire.OpInsert, wire.NewBuilder(64).Uint64(tx).String("t").Blob(le64(9)).Bytes()},
		{wire.OpRead, wire.NewBuilder(64).String("t").RID(rid).Bytes()},
		{wire.OpCommit, txPayload(tx)},
	})
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	readReplies(t, conn, 6)
	if got := adminFlushes(t, adminAddr) - before; got != 1 {
		t.Fatalf("6-frame burst answered with %d flushes, want 1", got)
	}
}

// seedTuple creates table name holding one committed tuple with value
// 0 and returns its rid.
func seedTuple(t *testing.T, db *engine.DB, name string) core.RID {
	t.Helper()
	tbl, err := db.CreateTable(name, "data")
	if err != nil {
		t.Fatal(err)
	}
	setup := mustBegin(t, db)
	rid, err := tbl.Insert(setup, le64(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	return rid
}

// gateRepl is a Replicator whose WaitCommitted blocks until release is
// closed, signalling entered first: it holds a session inside a COMMIT.
type gateRepl struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gateRepl) IsLeader() bool     { return true }
func (g *gateRepl) LeaderAddr() string { return "" }
func (g *gateRepl) StatsDoc() any      { return nil }
func (g *gateRepl) HandleFrame(byte, []byte) (byte, []byte) {
	return wire.StatusBadRequest, nil
}
func (g *gateRepl) WaitCommitted(core.LSN) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	return nil
}

// TestShutdownExecutesReadFrames: frames the session has already read
// still execute and are answered when Shutdown begins mid-burst; only
// then does the session stop reading and close.
func TestShutdownExecutesReadFrames(t *testing.T) {
	db, tl := newStack(t)
	erid := seedTuple(t, db, "t")
	rid := wire.RID{Page: uint64(erid.Page), Slot: erid.Slot}
	gate := &gateRepl{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv, addr, _ := startServer(t, db, tl, server.Config{Repl: gate})

	conn := dialRaw(t, addr)
	burst := encodeBurst(t, []rawFrame{
		{wire.OpBegin, txPayload(1)},
		{wire.OpUpdateField, updateFieldPayload(1, "t", rid, 1)},
		{wire.OpCommit, txPayload(1)},
		{wire.OpBegin, txPayload(2)},
		{wire.OpUpdateField, updateFieldPayload(2, "t", rid, 2)},
		{wire.OpCommit, txPayload(2)},
	})
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered: // the session holds the first COMMIT; the rest is read
	case <-time.After(10 * time.Second):
		t.Fatal("first COMMIT never reached WaitCommitted")
	}

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(10 * time.Second) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		doc, err := srv.StatsDocument()
		if err != nil {
			t.Fatal(err)
		}
		if doc.Server.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)

	readReplies(t, conn, 6)
	if _, err := wire.ReadFrame(conn, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("after the burst: %v, want the server to close the connection", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Both commits were acknowledged, so both survive a crash.
	if err := db.SimulateCrash(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Recover(nil); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	data, err := tbl.Read(nil, erid)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(data); v != 2 {
		t.Fatalf("tuple = %d after recovery, want 2 (the second buffered commit)", v)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
