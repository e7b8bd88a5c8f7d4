package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRestartSmoke is the daemon-restart fault path (`make
// restart-smoke`): it builds the real cohsimd, runs cold quick lrustate
// jobs at three seeds, SIGKILLs the daemon once they are done (so no
// shutdown save runs), restarts it on the same -out, and resubmits the
// jobs. Every cell must come back cached, with byte-identical TSVs.
func TestRestartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cohsimd")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out := filepath.Join(dir, "out")
	seeds := []uint64{1, 2, 3}

	d := startDaemon(t, bin, out)
	first := make([][]byte, len(seeds))
	for i, seed := range seeds {
		v, tsv := d.runLRUState(seed)
		if v.Cells.Executed != v.Cells.Total || v.Cells.Total == 0 {
			t.Fatalf("seed %d: first run should execute every cell: %+v", seed, v.Cells)
		}
		first[i] = tsv
	}
	d.kill()
	if _, err := os.Stat(filepath.Join(out, "manifest.json.journal")); err != nil {
		t.Fatalf("no journal after the jobs were done: %v", err)
	}

	d = startDaemon(t, bin, out)
	for i, seed := range seeds {
		v, tsv := d.runLRUState(seed)
		if v.Cells.Cached != v.Cells.Total {
			t.Fatalf("seed %d after SIGKILL and restart: %d of %d cells cached", seed, v.Cells.Cached, v.Cells.Total)
		}
		if !bytes.Equal(tsv, first[i]) {
			t.Fatalf("seed %d: TSV after restart differs:\n%s\nwant:\n%s", seed, tsv, first[i])
		}
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown: %v\n%s", err, d.log.String())
	}
}

// daemon is one running cohsimd process.
type daemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string
	log  *bytes.Buffer
}

// startDaemon runs the binary on a free localhost port with default
// flags and waits for /healthz.
func startDaemon(t *testing.T, bin, out string) *daemon {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{t: t, base: "http://" + addr, log: new(bytes.Buffer)}
	d.cmd = exec.Command(bin, "-addr", addr, "-out", out)
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v\n%s", err, d.log.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon and reaps it.
func (d *daemon) kill() {
	d.t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		d.t.Fatal(err)
	}
	d.cmd.Wait()
}

// jobView is the part of a job's JSON view the smoke reads.
type jobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
	Cells struct {
		Total, Executed, Cached int
	} `json:"cells"`
}

// runLRUState submits a quick lrustate job at seed, waits for it to be
// done and returns its view and TSV.
func (d *daemon) runLRUState(seed uint64) (jobView, []byte) {
	d.t.Helper()
	body := fmt.Sprintf(`{"artifacts":["lrustate"],"sizing":"quick","seed":%d}`, seed)
	var v jobView
	d.call(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &v)
	deadline := time.Now().Add(2 * time.Minute)
	for v.State != "done" {
		if v.State == "failed" || v.State == "cancelled" || time.Now().After(deadline) {
			d.t.Fatalf("job %s: %s %s\n%s", v.ID, v.State, v.Error, d.log.String())
		}
		time.Sleep(10 * time.Millisecond)
		d.call(http.MethodGet, "/v1/jobs/"+v.ID, "", http.StatusOK, &v)
	}
	return v, d.call(http.MethodGet, "/v1/jobs/"+v.ID+"/artifacts/lrustate.tsv", "", http.StatusOK, nil)
}

// call makes one request, checks its status and decodes a JSON body
// into into when it is non-nil. It returns the body.
func (d *daemon) call(method, path, body string, want int, into any) []byte {
	d.t.Helper()
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		d.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatal(err)
	}
	if resp.StatusCode != want {
		d.t.Fatalf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, b)
	}
	if into != nil {
		if err := json.Unmarshal(b, into); err != nil {
			d.t.Fatalf("%s %s: %v", method, path, err)
		}
	}
	return b
}
