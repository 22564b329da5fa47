package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/platform"
	"repro/internal/server"
	"repro/internal/taskgraph"
)

// TestMain lets tests re-exec this binary as bbserved itself: with
// BBSERVED_BE_MAIN set, the test binary runs main() with its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("BBSERVED_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func testGraph(t *testing.T, seed int64) *taskgraph.Graph {
	t.Helper()
	p := gen.Defaults()
	g := gen.New(p, seed).Graph()
	if err := deadline.Assign(g, p.Laxity, deadline.EqualSlack); err != nil {
		t.Fatalf("deadline.Assign: %v", err)
	}
	return g
}

func post(t *testing.T, base, path string, payload any) *http.Response {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("close body: %v", err)
	}
	return resp
}

// TestSlowHeaderDisconnected is the slow-client guard: a client that sends
// half a request line and then stalls is disconnected once the header
// timeout passes, instead of holding the connection open.
func TestSlowHeaderDisconnected(t *testing.T) {
	const timeout = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.NotFoundHandler(), timeout)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	defer func() {
		if err := hs.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
	}()

	// The server starts its header clock after accepting, so no earlier
	// than start.
	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //bbvet:ignore errcheck (the server has already closed it)
	if _, err := conn.Write([]byte("POST /v1/sol")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(10 * timeout)); err != nil {
		t.Fatal(err)
	}
	// The server may answer 400 before it closes; either way the read
	// must end at EOF, not at the client's own deadline.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection not closed %v after a half request line (header timeout %v): %v", time.Since(start), timeout, err)
	}
	if elapsed := time.Since(start); elapsed < timeout {
		t.Fatalf("disconnected after %v, before the %v header timeout", elapsed, timeout)
	}
}

// TestDaemonLifecycle is the end-to-end CLI test: bbserved on a random
// port, one request per endpoint, then a clean SIGTERM shutdown with zero
// leaked goroutines.
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-budget", "2s")
	cmd.Env = append(os.Environ(), "BBSERVED_BE_MAIN=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill() //bbvet:ignore errcheck — belt and braces on failure paths
	}()

	// The first line announces the bound address.
	scanner := bufio.NewScanner(stdout)
	if !scanner.Scan() {
		t.Fatalf("no startup line: %v", scanner.Err())
	}
	first := scanner.Text()
	const marker = "listening on "
	i := strings.Index(first, marker)
	if i < 0 {
		t.Fatalf("startup line %q lacks %q", first, marker)
	}
	base := "http://" + strings.TrimSpace(first[i+len(marker):])

	// Drain the rest of stdout in the background for the shutdown report.
	rest := make(chan string, 1)
	go func() {
		var sb strings.Builder
		for scanner.Scan() {
			sb.WriteString(scanner.Text())
			sb.WriteString("\n")
		}
		rest <- sb.String()
	}()

	g := testGraph(t, 42)
	gr := server.GraphRequest{Graph: g, Procs: 4}
	plat := platform.New(4)
	static, err := listsched.Best(g, plat)
	if err != nil {
		t.Fatal(err)
	}

	endpoints := []struct {
		path    string
		payload any
	}{
		{"/v1/solve", server.SolveRequest{GraphRequest: gr, BudgetMS: 2000}},
		{"/v1/anytime", server.AnytimeRequest{GraphRequest: gr, BudgetMS: 1000}},
		{"/v1/list", server.ListRequest{GraphRequest: gr, Policy: "edf"}},
		{"/v1/analyze", server.AnalyzeRequest{GraphRequest: gr}},
		{"/v1/recover", server.RecoverRequest{
			GraphRequest: gr,
			Schedule:     static.Schedule.Placements(),
			Faults: []server.FaultSpec{{
				Kind: "proc-failure", Proc: 0, At: static.Schedule.Makespan() / 2,
			}},
			BudgetMS: 1000,
		}},
	}
	for _, ep := range endpoints {
		resp := post(t, base, ep.path, ep.payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", ep.path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	// SIGTERM: the daemon drains and exits 0 with no leaked goroutines.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Read stdout to EOF before reaping: cmd.Wait closes the pipe and
	// would race the scanner goroutine out of the final shutdown lines.
	var tail string
	select {
	case tail = <-rest:
	case <-time.After(30 * time.Second):
		t.Fatalf("bbserved did not exit after SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("bbserved exited non-zero: %v", err)
	}
	if !strings.Contains(tail, "draining") {
		t.Errorf("shutdown output lacks drain announcement:\n%s", tail)
	}
	if !strings.Contains(tail, fmt.Sprintf("%d leaked goroutines", 0)) {
		t.Errorf("shutdown output lacks zero-leak report:\n%s", tail)
	}
}

// TestBadFlags: trailing arguments are a usage error.
func TestBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	cmd := exec.Command(os.Args[0], "nonsense")
	cmd.Env = append(os.Environ(), "BBSERVED_BE_MAIN=1")
	if err := cmd.Run(); err == nil {
		t.Fatalf("bbserved accepted positional arguments")
	}
}

// TestGridFlagValidation: -advertise without -peers and malformed
// -tenants specs are usage errors, not silent misconfigurations.
func TestGridFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	for _, args := range [][]string{
		{"-advertise", "http://127.0.0.1:9"},
		{"-tenants", "gold:-1"},
		{"-tenants", "gold:2,gold:1"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "BBSERVED_BE_MAIN=1")
		if err := cmd.Run(); err == nil {
			t.Errorf("bbserved accepted %q", args)
		}
	}
}

// replicaProc is one re-exec'd bbserved under test.
type replicaProc struct {
	cmd  *exec.Cmd
	base string
	rest chan string
}

// startReplica launches bbserved on addr with the given extra flags and
// waits for its listening announcement.
func startReplica(t *testing.T, addr string, extra ...string) *replicaProc {
	t.Helper()
	args := append([]string{"-addr", addr, "-budget", "2s"}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BBSERVED_BE_MAIN=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill() //bbvet:ignore errcheck — belt and braces on failure paths
	})
	scanner := bufio.NewScanner(stdout)
	if !scanner.Scan() {
		t.Fatalf("no startup line: %v", scanner.Err())
	}
	first := scanner.Text()
	const marker = "listening on "
	i := strings.Index(first, marker)
	if i < 0 {
		t.Fatalf("startup line %q lacks %q", first, marker)
	}
	r := &replicaProc{
		cmd:  cmd,
		base: "http://" + strings.TrimSpace(first[i+len(marker):]),
		rest: make(chan string, 1),
	}
	go func() {
		var sb strings.Builder
		for scanner.Scan() {
			sb.WriteString(scanner.Text())
			sb.WriteString("\n")
		}
		r.rest <- sb.String()
	}()
	return r
}

// shutdown SIGTERMs the replica and asserts a clean zero-leak exit. The
// output is drained to EOF before Wait: Wait closes the pipe and would
// race the reader out of the report's tail lines.
func (r *replicaProc) shutdown(t *testing.T) {
	t.Helper()
	if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var tail string
	select {
	case tail = <-r.rest:
	case <-time.After(30 * time.Second):
		t.Fatalf("replica %s did not exit after SIGTERM", r.base)
	}
	if err := r.cmd.Wait(); err != nil {
		t.Fatalf("replica %s exited non-zero: %v\n%s", r.base, err, tail)
	}
	if !strings.Contains(tail, "0 leaked goroutines") {
		t.Errorf("replica %s shutdown output lacks zero-leak report:\n%s", r.base, tail)
	}
}

// reservePorts grabs n distinct loopback ports and releases them for the
// child processes to rebind (the usual small-race port-reservation
// trick; the window is tiny and the test is loopback-only).
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		_ = ln.Close()
	}
	return addrs
}

// postTenant posts a payload with an X-Tenant header and returns the
// response (body closed), for asserting status and cache headers.
func postTenant(t *testing.T, base, path, tenant string, payload any) *http.Response {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("close body: %v", err)
	}
	return resp
}

// TestGridReplicaLifecycle is the CLI-level grid e2e: two peered
// bbserved processes with tenant classes, a solve on replica 1, the
// same solve served from cache (local or peer fill) by replica 2,
// tenant admission visible in /metrics, and clean zero-leak shutdowns
// on both.
func TestGridReplicaLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	addrs := reservePorts(t, 2)
	url0, url1 := "http://"+addrs[0], "http://"+addrs[1]
	r0 := startReplica(t, addrs[0], "-peers", url1, "-advertise", url0, "-tenants", "gold:2,free:1")
	r1 := startReplica(t, addrs[1], "-peers", url0, "-advertise", url1, "-tenants", "gold:2,free:1")

	g := testGraph(t, 1997)
	payload := server.SolveRequest{
		GraphRequest: server.GraphRequest{Graph: g, Procs: 4},
		BudgetMS:     2000,
	}
	if resp := postTenant(t, r0.base, "/v1/solve", "gold", payload); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica 0 solve: status %d", resp.StatusCode)
	}
	// Replica 1 must serve the same request without a fresh solve once
	// the grid settles: either the key's ring owner already has the body
	// (X-Cache: peer on the fetch path) or the fill-back landed locally
	// (X-Cache: hit). A first miss can race the async fill-back, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := postTenant(t, r1.base, "/v1/solve", "free", payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica 1 solve: status %d", resp.StatusCode)
		}
		if xc := resp.Header.Get("X-Cache"); xc == "hit" || xc == "peer" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 1 never served the solve from cache")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if resp := postTenant(t, r0.base, "/v1/solve", "nosuch", payload); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown tenant: status %d, want 400", resp.StatusCode)
	}

	resp, err := http.Get(r0.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var ms struct {
		Tenants []struct {
			Name   string `json:"name"`
			Served int64  `json:"served"`
		} `json:"tenants"`
		Grid map[string]any `json:"grid"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if ms.Grid == nil {
		t.Errorf("replica 0 metrics lack the grid block")
	}
	foundGold := false
	for _, ten := range ms.Tenants {
		if ten.Name == "gold" && ten.Served >= 1 {
			foundGold = true
		}
	}
	if !foundGold {
		t.Errorf("replica 0 metrics lack gold tenant accounting: %+v", ms.Tenants)
	}

	r0.shutdown(t)
	r1.shutdown(t)
}
