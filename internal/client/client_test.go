package client

import (
	"testing"
	"time"

	"ipa/internal/wire"
)

// TestWaitReadyNoTimer: Wait on a Pending whose response has already
// arrived takes it without arming the request-timeout timer, so it
// allocates nothing.
func TestWaitReadyNoTimer(t *testing.T) {
	c := &Conn{opts: Options{RequestTimeout: time.Minute}}
	p := &Pending{c: c, id: 1, ch: make(chan wire.Frame, 1)}
	allocs := testing.AllocsPerRun(100, func() {
		p.ch <- wire.Frame{ID: 1, Kind: wire.StatusOK}
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Wait on an arrived response: %.1f allocs, want 0 (no timer)", allocs)
	}
}
