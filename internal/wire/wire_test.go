package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := NewBuilder(64).
		Uint64(42).String("tpcb_account").RID(RID{Page: 7, Slot: 3}).
		Blob([]byte("hello")).Bytes()
	if err := WriteFrame(&buf, 99, OpUpdate, payload); err != nil {
		t.Fatal(err)
	}
	// A second frame behind it, to prove framing keeps them apart.
	if err := WriteFrame(&buf, 100, OpPing, nil); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 99 || f.Kind != OpUpdate {
		t.Fatalf("frame = %+v", f)
	}
	r := NewReader(f.Payload)
	if tx := r.Uint64(); tx != 42 {
		t.Fatalf("txid = %d", tx)
	}
	if s := r.String(); s != "tpcb_account" {
		t.Fatalf("table = %q", s)
	}
	if rid := r.RID(); rid != (RID{Page: 7, Slot: 3}) {
		t.Fatalf("rid = %+v", rid)
	}
	if b := r.Blob(); string(b) != "hello" {
		t.Fatalf("blob = %q", b)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
	f2, err := ReadFrame(&buf, 0)
	if err != nil || f2.ID != 100 || f2.Kind != OpPing || len(f2.Payload) != 0 {
		t.Fatalf("second frame = %+v err=%v", f2, err)
	}
}

func TestReadFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, OpRead, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, 128); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
	// Truncated stream → io error, not a hang.
	short := bytes.NewReader([]byte{0, 0, 0, 20, 1, 2})
	if _, err := ReadFrame(short, 0); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Length below the id+kind header is malformed.
	bad := bytes.NewReader([]byte{0, 0, 0, 3, 1, 2, 3})
	if _, err := ReadFrame(bad, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("undersized frame: %v", err)
	}
}

func TestReaderSticksOnError(t *testing.T) {
	r := NewReader([]byte{1, 2}) // too short for a u64
	_ = r.Uint64()
	if r.Err() == nil {
		t.Fatal("no error on truncated read")
	}
	// Subsequent reads stay zero and don't panic.
	if v := r.Uint32(); v != 0 {
		t.Fatalf("read after error = %d", v)
	}
	if !errors.Is(r.Err(), ErrBadRequest) {
		t.Fatalf("err = %v", r.Err())
	}
}

func TestStatusErrorSentinels(t *testing.T) {
	cases := []struct {
		code byte
		want error
	}{
		{StatusClosed, ErrClosed},
		{StatusBusy, ErrBusy},
		{StatusLockConflict, ErrLockConflict},
		{StatusTxClosed, ErrTxClosed},
		{StatusTxPoisoned, ErrTxPoisoned},
		{StatusNoTable, ErrNoTable},
		{StatusNoTuple, ErrNoTuple},
		{StatusBadRequest, ErrBadRequest},
		{StatusInternal, ErrInternal},
	}
	for _, c := range cases {
		err := error(&StatusError{Code: c.code, Message: "m"})
		if !errors.Is(err, c.want) {
			t.Errorf("status %d does not unwrap to %v", c.code, c.want)
		}
	}
	if !IsTransient(&StatusError{Code: StatusBusy}) {
		t.Error("busy not transient")
	}
	if IsTransient(&StatusError{Code: StatusLockConflict}) {
		t.Error("lock conflict must not be transient")
	}
}

func TestWriteFrameSingleWrite(t *testing.T) {
	// The writer contract is one Write call per frame, so a mutex around
	// WriteFrame is enough to keep concurrent frames from interleaving.
	w := &countingWriter{}
	if err := WriteFrame(w, 7, OpPing, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if w.calls != 1 {
		t.Fatalf("WriteFrame issued %d writes, want 1", w.calls)
	}
}

type countingWriter struct{ calls int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	return len(p), nil
}

var _ io.Writer = (*countingWriter)(nil)

// TestReaderHugeLength: a peer-controlled blob length near 2^32 must
// fail the bounds check (on 32-bit platforms it wraps negative through
// int()), not panic in the slice expression.
func TestReaderHugeLength(t *testing.T) {
	p := NewBuilder(8).Uint32(0xFFFF_FFF0).Bytes() // length field only, no body
	r := NewReader(p)
	if b := r.Blob(); b != nil {
		t.Fatalf("Blob = %v, want nil", b)
	}
	if err := r.Err(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Err = %v, want ErrBadRequest", err)
	}
}

// TestWriteFrameZeroAllocs: into a bufio.Writer with room for the frame,
// WriteFrame encodes in the writer's free buffer and allocates nothing.
func TestWriteFrameZeroAllocs(t *testing.T) {
	bw := bufio.NewWriterSize(io.Discard, 4096)
	payload := NewBuilder(64).Uint64(42).String("tpcb_account").RID(RID{Page: 7, Slot: 3}).Bytes()
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(bw, 99, OpAddField, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteFrame into a bufio.Writer: %.1f allocs, want 0", allocs)
	}
}

// TestReadFrameOneAlloc: from a bufio.Reader, ReadFrame allocates the
// frame body and nothing else.
func TestReadFrameOneAlloc(t *testing.T) {
	var stream bytes.Buffer
	if err := WriteFrame(&stream, 99, OpAddField, make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(stream.Bytes())
	br := bufio.NewReaderSize(src, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(stream.Bytes())
		br.Reset(src)
		if _, err := ReadFrame(br, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("ReadFrame from a bufio.Reader: %.1f allocs, want 1 (the body)", allocs)
	}
}

// readAll reads frames until the first error and returns them with it.
func readAll(r io.Reader, maxFrame int) ([]Frame, error) {
	var frames []Frame
	for {
		f, err := ReadFrame(r, maxFrame)
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}

// FuzzReadFrame decodes the input as a frame stream twice: through a
// *bufio.Reader, fed one byte per read so every length prefix and body
// straddles refills (the Peek path), and through a plain io.Reader (the
// io.ReadFull path). Both must yield the same frames and end on the
// same error. The seed corpus in testdata/fuzz runs with go test.
func FuzzReadFrame(f *testing.F) {
	const maxFrame = 1 << 12
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, plainErr := readAll(bytes.NewReader(data), maxFrame)
		buffered, bufErr := readAll(bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), 16), maxFrame)
		if len(plain) != len(buffered) {
			t.Fatalf("plain read %d frames, buffered %d", len(plain), len(buffered))
		}
		for i := range plain {
			p, b := plain[i], buffered[i]
			if p.ID != b.ID || p.Kind != b.Kind || !bytes.Equal(p.Payload, b.Payload) {
				t.Fatalf("frame %d: plain %+v, buffered %+v", i, p, b)
			}
		}
		if plainErr.Error() != bufErr.Error() || errors.Is(plainErr, io.EOF) != errors.Is(bufErr, io.EOF) {
			t.Fatalf("plain ended on %v, buffered on %v", plainErr, bufErr)
		}
	})
}
