package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sufsat/internal/server"
	"sufsat/internal/server/client"
)

// TestServedProcessSmoke builds cmd/sufserved and exercises the daemon
// lifecycle end to end at the process level: bind an ephemeral port, answer
// one valid, one invalid and one malformed request, then drain cleanly on
// SIGTERM with exit status 0 and a final counter audit line. This is the
// test behind `make serve-smoke`.
func TestServedProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process smoke test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "sufserved")
	build := exec.Command("go", "build", "-o", bin, "sufsat/cmd/sufserved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	proc := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain-timeout", "10s")
	stderr, err := proc.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := proc.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer proc.Process.Kill() //nolint:errcheck // no-op after a clean Wait

	// Collect stderr; surface the "listening on" line as soon as it appears.
	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	var logMu sync.Mutex
	var logLines []string
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			logLines = append(logLines, line)
			logMu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
				select {
				case addrCh <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()
	var baseURL string
	select {
	case addr := <-addrCh:
		baseURL = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("server never reported its listen address")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New(baseURL)
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("ready: %v", err)
	}

	// A zero Config sizes its pool like sufserved with default flags.
	zero := server.New(server.Config{})
	defer zero.Shutdown(ctx) //nolint:errcheck
	inProc := httptest.NewServer(zero.Handler())
	defer inProc.Close()
	if got, want := statuszWorkers(t, inProc.URL), statuszWorkers(t, baseURL); got != want {
		t.Errorf("zero Config runs %d pool workers, sufserved with default flags %d", got, want)
	}

	// One valid, one invalid (with model), one malformed.
	resp, err := c.Decide(ctx, &server.Request{Formula: "(=> (= x y) (= (f x) (f y)))"})
	if err != nil || resp.Status != "valid" {
		t.Fatalf("valid request: resp=%+v err=%v", resp, err)
	}
	resp, err = c.Decide(ctx, &server.Request{Formula: "(=> (< x y) (< y x))", WantModel: true})
	if err != nil || resp.Status != "invalid" || len(resp.ModelConsts) == 0 {
		t.Fatalf("invalid request: resp=%+v err=%v", resp, err)
	}
	hresp, err := http.Post(baseURL+"/decide", "application/json", strings.NewReader(`{"formula":"((("}`))
	if err != nil {
		t.Fatalf("malformed request: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed request: HTTP %d want 400", hresp.StatusCode)
	}

	// SIGTERM: graceful drain, exit 0, audit line. Wait for the scanner to
	// see EOF before calling Wait — Wait closes the pipe and would race the
	// final audit lines out of the capture.
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case <-scanDone:
	case <-time.After(30 * time.Second):
		t.Fatal("server stderr never reached EOF after SIGTERM")
	}
	done := make(chan error, 1)
	go func() { done <- proc.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit status: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	logMu.Lock()
	defer logMu.Unlock()
	all := strings.Join(logLines, "\n")
	if !strings.Contains(all, "drained: admitted=2 completed=2") {
		t.Errorf("missing or wrong drain audit line in stderr:\n%s", all)
	}
	if !strings.Contains(all, "malformed=1") {
		t.Errorf("audit line does not count the malformed request:\n%s", all)
	}
}

// statuszWorkers reads the pool size off a server's /statusz.
func statuszWorkers(t *testing.T, baseURL string) int {
	t.Helper()
	resp, err := http.Get(baseURL + "/statusz")
	if err != nil {
		t.Fatalf("statusz: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Workers int `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	return st.Workers
}
