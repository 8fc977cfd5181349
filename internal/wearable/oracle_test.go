package wearable

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mindful/internal/comm"
)

// receiveRef is the reference form of Receive: every frame decodes into
// a fresh sample slice and a rejection wraps its decode cause.
func (r *Receiver) receiveRef(buf []byte) (comm.Frame, error) {
	var start time.Time
	if r.o.attached {
		start = time.Now()
	}
	f, err := comm.Decode(buf, nil)
	if err != nil {
		r.corrupt++
		r.o.corrupt.Inc()
		return comm.Frame{}, fmt.Errorf("wearable: frame rejected: %w", err)
	}
	if r.started && f.Seq != r.nextSeq {
		delta := int32(f.Seq - r.nextSeq)
		if delta < 0 {
			r.stale++
			r.o.stale.Inc()
			return f, ErrStaleFrame
		}
		gap := int64(delta)
		r.lost += gap
		r.o.lostSeq.Add(gap)
		r.conceal(gap, f)
	}
	r.started = true
	r.nextSeq = f.Seq + 1
	r.accepted++
	r.record(f.Samples)
	r.remember(f.Samples)
	if r.o.attached {
		r.o.accepted.Inc()
		r.o.latency.Observe(time.Since(start).Seconds())
	}
	return f, nil
}

// TestReceiveScratchMatchesReceive feeds two receivers the same delivery
// stream — clean frames, corrupt frames, gaps and a stale duplicate —
// one through Receive, which decodes into receiver-owned scratch, and
// one through the allocating reference, and requires identical frames,
// errors (by kind), stats, state and history.
func TestReceiveScratchMatchesReceive(t *testing.T) {
	mk := func() (*Receiver, *comm.Packetizer) {
		rx, err := NewReceiver(32)
		if err != nil {
			t.Fatal(err)
		}
		rx.Concealment = ConcealInterp
		pkt, err := comm.NewPacketizer(10)
		if err != nil {
			t.Fatal(err)
		}
		return rx, pkt
	}
	ref, refPkt := mk()
	prod, prodPkt := mk()

	samples := func(pkt *comm.Packetizer, tick int) []byte {
		xs := make([]uint16, 8)
		for c := range xs {
			xs[c] = uint16((tick*31 + c*7) % 1024)
		}
		buf, err := pkt.AppendEncode(nil, xs)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	var stale []byte // a buffered frame redelivered later
	for tick := 0; tick < 120; tick++ {
		refBuf := samples(refPkt, tick)
		prodBuf := samples(prodPkt, tick)
		switch {
		case tick%17 == 5: // dropped frame: receiver never sees it
			continue
		case tick%13 == 4: // corrupt delivery
			refBuf[len(refBuf)/2] ^= 0x40
			prodBuf[len(prodBuf)/2] ^= 0x40
		case tick == 60: // remember for a stale redelivery
			stale = append([]byte(nil), refBuf...)
		}
		refFr, refErr := ref.receiveRef(refBuf)
		prodFr, prodErr := prod.Receive(prodBuf)
		if (refErr == nil) != (prodErr == nil) {
			t.Fatalf("tick %d: err mismatch %v vs %v", tick, refErr, prodErr)
		}
		if refErr == nil && !reflect.DeepEqual(refFr, prodFr) {
			t.Fatalf("tick %d: frame mismatch %+v vs %+v", tick, refFr, prodFr)
		}
		if tick == 80 && stale != nil { // redeliver the old frame
			_, refErr := ref.receiveRef(stale)
			_, prodErr := prod.Receive(stale)
			if !errors.Is(refErr, ErrStaleFrame) || !errors.Is(prodErr, ErrStaleFrame) {
				t.Fatalf("stale redelivery: %v vs %v", refErr, prodErr)
			}
		}
	}
	if !reflect.DeepEqual(ref.Stats(), prod.Stats()) {
		t.Errorf("stats diverge:\n ref %+v\nprod %+v", ref.Stats(), prod.Stats())
	}
	if !reflect.DeepEqual(ref.Snapshot(), prod.Snapshot()) {
		t.Errorf("snapshots diverge")
	}
	for c := 0; c < 8; c++ {
		if !reflect.DeepEqual(ref.History(c), prod.History(c)) {
			t.Errorf("history channel %d diverges", c)
		}
	}
}

// TestReceiveScratchRejectionIsStatic pins the allocation contract: a
// corrupt frame surfaces ErrFrameRejected itself, not a wrapped
// allocation, the receiver's scratch survives for reuse, and neither
// rejecting nor accepting a frame allocates at steady state.
func TestReceiveScratchRejectionIsStatic(t *testing.T) {
	rx, err := NewReceiver(0)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := comm.NewPacketizer(10)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]uint16, 64)
	frame, err := pkt.AppendEncode(nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Receive(frame); err != nil {
		t.Fatal(err)
	}
	before := cap(rx.scratch)
	if _, rerr := rx.Receive([]byte{1, 2, 3}); rerr != ErrFrameRejected {
		t.Fatalf("err = %v, want ErrFrameRejected identity", rerr)
	}
	if cap(rx.scratch) != before {
		t.Errorf("scratch capacity changed on rejection")
	}
	if rx.Stats().Corrupted != 1 {
		t.Errorf("corrupted = %d, want 1", rx.Stats().Corrupted)
	}
	garbage := []byte{1, 2, 3}
	if allocs := testing.AllocsPerRun(200, func() { rx.Receive(garbage) }); allocs != 0 { //nolint:errcheck
		t.Errorf("rejection path allocates %.1f/op, want 0", allocs)
	}
	allocs := testing.AllocsPerRun(200, func() {
		frame, _ = pkt.AppendEncode(frame[:0], samples)
		if _, err := rx.Receive(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("accept path allocates %.1f/op, want 0", allocs)
	}
}
