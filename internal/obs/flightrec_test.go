package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestFlightRecorderBasics records a handful of events and reads them back.
func TestFlightRecorderBasics(t *testing.T) {
	fr := NewFlightRecorder(64)
	fr.Record(FlightAdmit, "req-1", "HYBRID", 0, 3)
	fr.Record(FlightStart, "req-1", "HYBRID", 150, 2)
	fr.Record(FlightSpan, "req-1", "encode", 900, 0)
	fr.Record(FlightDone, "req-1", "valid", 1200, 200)

	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	wantKinds := []string{"admit", "start", "span", "done"}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind %q, want %q", i, ev.Kind, wantKinds[i])
		}
		if ev.ReqID != "req-1" {
			t.Errorf("event %d req_id %q, want req-1", i, ev.ReqID)
		}
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Errorf("event %d seq %d not increasing", i, ev.Seq)
		}
		if ev.AtNS <= 0 {
			t.Errorf("event %d timestamp %d", i, ev.AtNS)
		}
	}
	if evs[2].Name != "encode" || evs[2].DurUS != 900 {
		t.Errorf("span event = %+v", evs[2])
	}
	if fr.Recorded() != 4 || fr.Overwritten() != 0 {
		t.Errorf("recorded=%d overwritten=%d, want 4, 0", fr.Recorded(), fr.Overwritten())
	}
}

// TestFlightRecorderWraparound overfills the ring and checks that only the
// newest Cap events survive, in order, with the overwrite count right.
func TestFlightRecorderWraparound(t *testing.T) {
	const capacity = 64
	fr := NewFlightRecorder(capacity)
	const total = capacity*3 + 17
	for i := 0; i < total; i++ {
		fr.Record(FlightSpan, "wrap", fmt.Sprintf("s%d", i%10), int64(i), int64(i))
	}
	if fr.Recorded() != total {
		t.Fatalf("recorded = %d, want %d", fr.Recorded(), total)
	}
	if fr.Overwritten() != total-capacity {
		t.Fatalf("overwritten = %d, want %d", fr.Overwritten(), total-capacity)
	}
	evs := fr.Events()
	if len(evs) != capacity {
		t.Fatalf("got %d events, want the ring capacity %d", len(evs), capacity)
	}
	// The survivors are exactly the newest `capacity` tickets, ascending.
	for i, ev := range evs {
		want := uint64(total - capacity + i + 1)
		if ev.Seq != want {
			t.Fatalf("event %d seq %d, want %d", i, ev.Seq, want)
		}
		if ev.Value != int64(ev.Seq)-1 {
			t.Fatalf("event %d value %d does not match its ticket %d", i, ev.Value, ev.Seq)
		}
	}
}

// TestFlightRecorderLongStrings verifies the 16-byte packing truncates
// rather than corrupts.
func TestFlightRecorderLongStrings(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.Record(FlightDone, "0123456789abcdefOVERFLOW", "a-rather-long-span-name", 1, 1)
	evs := fr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].ReqID != "0123456789abcdef" {
		t.Errorf("req_id %q, want the first 16 bytes", evs[0].ReqID)
	}
	if evs[0].Name != "a-rather-long-sp" {
		t.Errorf("name %q, want the first 16 bytes", evs[0].Name)
	}
}

// TestFlightRecorderConcurrent hammers the ring from many writers while
// readers snapshot it — the -race gate for the seqlock protocol. Every
// event a reader observes must be internally consistent (its value mirrors
// its sequence number).
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(128)
	const writers = 8
	const perWriter = 20000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("writer-%d", w)
			for i := 0; i < perWriter; i++ {
				fr.Record(FlightSpan, id, "sat", int64(i), int64(i))
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			evs := fr.Events()
			var prev uint64
			for _, ev := range evs {
				if ev.Seq <= prev {
					readerDone <- fmt.Errorf("seq %d after %d", ev.Seq, prev)
					return
				}
				prev = ev.Seq
				if ev.Kind != "span" || ev.Name != "sat" {
					readerDone <- fmt.Errorf("torn event %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatalf("reader: %v", err)
	}
	if fr.Recorded() != writers*perWriter {
		t.Fatalf("recorded = %d, want %d", fr.Recorded(), writers*perWriter)
	}
}

// TestFlightDumpCountsCoverEvents dumps while several goroutines record:
// every dump's counters must account for every event it carries, so
// Recorded is never below the number of events nor below their largest Seq.
func TestFlightDumpCountsCoverEvents(t *testing.T) {
	fr := NewFlightRecorder(64)
	const writers = 4
	const perWriter = 20000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				fr.Record(FlightSpan, "w", "sat", 1, 1)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for dumps := 0; ; dumps++ {
		d := fr.Dump()
		if d.Recorded < int64(len(d.Events)) {
			t.Fatalf("dump %d: recorded=%d < %d events", dumps, d.Recorded, len(d.Events))
		}
		if n := len(d.Events); n > 0 && d.Recorded < int64(d.Events[n-1].Seq) {
			t.Fatalf("dump %d: recorded=%d < max seq %d", dumps, d.Recorded, d.Events[n-1].Seq)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// TestFlightDumpJSON round-trips a dump through its JSON schema.
func TestFlightDumpJSON(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.Record(FlightAdmit, "abc", "HYBRID", 0, 1)
	fr.Record(FlightShed, "def", "queue_full", 0, 64)
	var buf bytes.Buffer
	if err := fr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&dump); err != nil {
		t.Fatalf("dump does not round-trip: %v", err)
	}
	if dump.Cap != 16 || dump.Recorded != 2 || len(dump.Events) != 2 {
		t.Fatalf("dump = %+v", dump)
	}
	if dump.Events[1].Kind != "shed" || dump.Events[1].Name != "queue_full" {
		t.Fatalf("shed event = %+v", dump.Events[1])
	}
	if dump.DumpedAtNS <= 0 {
		t.Error("dump has no timestamp")
	}
}

// TestFlightRecorderNil verifies the nil contract.
func TestFlightRecorderNil(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(FlightSpan, "x", "y", 1, 1)
	if fr.Events() != nil || fr.Recorded() != 0 || fr.Overwritten() != 0 || fr.Cap() != 0 {
		t.Error("nil recorder leaked state")
	}
}

// TestZeroAllocPaths pins the hot-path allocation contract: recording a
// flight event in steady state, every nil-telemetry no-op, and a nil
// ServiceMetrics update must not allocate.
func TestZeroAllocPaths(t *testing.T) {
	fr := NewFlightRecorder(64)
	if n := testing.AllocsPerRun(1000, func() {
		fr.Record(FlightSpan, "0123456789abcdef", "sat", 42, 7)
	}); n != 0 {
		t.Errorf("FlightRecorder.Record allocates %.1f/op, want 0", n)
	}

	var nilFr *FlightRecorder
	if n := testing.AllocsPerRun(1000, func() {
		nilFr.Record(FlightSpan, "id", "sat", 1, 1)
	}); n != 0 {
		t.Errorf("nil FlightRecorder.Record allocates %.1f/op, want 0", n)
	}

	var rec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		sp := rec.StartSpan("sat")
		sp.End()
	}); n != 0 {
		t.Errorf("nil-Recorder span start/end allocates %.1f/op, want 0", n)
	}

	var m *ServiceMetrics
	snap := &Snapshot{Method: "HYBRID", Status: "valid"}
	if n := testing.AllocsPerRun(1000, func() {
		m.ObserveRequest("valid", "HYBRID", 0.1, 0.2, 0.3)
		m.ObserveSnapshot(snap)
	}); n != 0 {
		t.Errorf("nil ServiceMetrics update allocates %.1f/op, want 0", n)
	}

	var h *Histogram
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(1.5)
	}); n != 0 {
		t.Errorf("nil Histogram.Observe allocates %.1f/op, want 0", n)
	}
}

// TestFlightCacheKinds pins the cache event vocabulary: the four kinds the
// verdict-cache path records round-trip through the ring with their String
// spellings (the tracecheck -flightrec schema), and recording each stays
// zero-alloc like every other hot-path event.
func TestFlightCacheKinds(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.Record(FlightCacheMiss, "req-c", "HYBRID", 12, 0)
	fr.Record(FlightCacheParked, "req-c", "HYBRID", 0, 0)
	fr.Record(FlightCacheWoken, "req-c", "HYBRID", 340, 1)
	fr.Record(FlightCacheHit, "req-c", "HYBRID", 5, 0)

	evs := fr.Events()
	wantKinds := []string{"cache-miss", "cache-parked", "cache-woken", "cache-hit"}
	if len(evs) != len(wantKinds) {
		t.Fatalf("got %d events, want %d", len(evs), len(wantKinds))
	}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind %q, want %q", i, ev.Kind, wantKinds[i])
		}
	}
	if evs[2].Value != 1 {
		t.Errorf("cache-woken val = %d, want 1 (usable verdict)", evs[2].Value)
	}

	for _, k := range []FlightKind{FlightCacheHit, FlightCacheMiss, FlightCacheParked, FlightCacheWoken} {
		k := k
		if n := testing.AllocsPerRun(1000, func() {
			fr.Record(k, "0123456789abcdef", "HYBRID", 42, 1)
		}); n != 0 {
			t.Errorf("Record(%s) allocates %.1f/op, want 0", k, n)
		}
	}
}
