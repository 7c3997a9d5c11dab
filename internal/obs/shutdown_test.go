package obs_test

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"sufsat/internal/faultinject"
	"sufsat/internal/obs"
)

// TestSamplingStopIdempotent verifies the collector's stop function can be
// called any number of times (early-exit paths in cmd/sufdecide call it from
// both a defer and the normal epilogue) and that the collector goroutine is
// gone afterwards.
func TestSamplingStopIdempotent(t *testing.T) {
	err := faultinject.LeakCheck(func() {
		r := obs.NewRecorder()
		r.SampleInterval = time.Millisecond
		p := r.Probes().New(0)
		p.Publish(obs.ProbeCounters{Conflicts: 1})
		stop := r.StartSampling()
		time.Sleep(5 * time.Millisecond)
		stop()
		stop()
		stop()
		if len(r.Samples()) == 0 {
			t.Error("no samples collected before stop")
		}
	}, 5*time.Second)
	if err != nil {
		t.Error(err)
	}
}

// TestSamplingDoubleStart verifies a second StartSampling on a recorder that
// is already sampling is a no-op whose stop function neither kills the live
// collector nor leaks, in either stop order.
func TestSamplingDoubleStart(t *testing.T) {
	err := faultinject.LeakCheck(func() {
		r := obs.NewRecorder()
		r.SampleInterval = time.Millisecond
		r.Probes().New(0).Publish(obs.ProbeCounters{Decisions: 1})
		stop1 := r.StartSampling()
		stop2 := r.StartSampling() // no-op: already sampling
		stop2()
		// Poll (bounded) rather than sleep a fixed time: on a loaded machine
		// the first ticks can take well over one interval. A stopped
		// collector takes exactly one final sample, so only a live one ever
		// reaches two.
		for deadline := time.Now().Add(2 * time.Second); len(r.Samples()) < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if len(r.Samples()) < 2 {
			t.Error("no-op stop killed the live collector")
		}
		stop1()
		// The recorder must be restartable after a real stop.
		stop3 := r.StartSampling()
		stop3()
	}, 5*time.Second)
	if err != nil {
		t.Error(err)
	}
}

// TestSamplingStopWithoutSamples covers the early-exit path where a run
// fails before the first tick: stop must still terminate the collector and
// take the final sample without blocking.
func TestSamplingStopWithoutSamples(t *testing.T) {
	err := faultinject.LeakCheck(func() {
		r := obs.NewRecorder()
		r.SampleInterval = time.Hour // never ticks on its own
		r.Probes().New(0).Publish(obs.ProbeCounters{Propagations: 7})
		stop := r.StartSampling()
		stop()
		if got := len(r.Samples()); got != 1 {
			t.Errorf("want exactly the final stop-time sample, got %d", got)
		}
	}, 5*time.Second)
	if err != nil {
		t.Error(err)
	}
}

// TestServeDebugShutdown verifies the -debug-addr server serves its expvar
// page, shuts down without leaking the acceptor goroutine, and tolerates a
// double Close (sufdecide closes it from a defer that can run after an
// explicit close on error paths).
func TestServeDebugShutdown(t *testing.T) {
	err := faultinject.LeakCheck(func() {
		srv, addr, err := obs.ServeDebug("127.0.0.1:0")
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("debug/vars: HTTP %d", resp.StatusCode)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("double close: %v", err)
		}
		// The listener must be gone: a new server can take over the port.
		srv2, _, err := obs.ServeDebug(addr)
		if err != nil {
			t.Fatalf("rebind after close: %v", err)
		}
		srv2.Close()
	}, 5*time.Second)
	if err != nil {
		t.Error(err)
	}
}
