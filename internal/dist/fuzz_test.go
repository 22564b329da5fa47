package dist

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/peer"
	"repro/internal/taskgraph"
)

// FuzzWire holds the /dist/v1/ wire to its contract on arbitrary bytes
// (seed corpus in testdata/fuzz/FuzzWire). As the body of every request
// the coordinator serves, the strict envelope (peer.DecodeJSON) decodes it
// or answers 400. As a lease, the worker's decode path returns an error or
// a solve, and params that decode round-trip through SpecFromParams.
// Nothing panics.
func FuzzWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, decode := range coordinatorRequests {
			rec := httptest.NewRecorder()
			if !decode(rec, httptest.NewRequest(http.MethodPost, "/dist/v1/", bytes.NewReader(body))) && rec.Code != http.StatusBadRequest {
				t.Fatalf("envelope rejected %q with %d, want 400", body, rec.Code)
			}
		}
		var lease LeaseResponse
		if json.Unmarshal(body, &lease) != nil {
			return
		}
		if p, err := lease.Params.Params(); err == nil {
			spec, err := SpecFromParams(p)
			if err != nil {
				t.Fatalf("decoded %+v, cannot encode %+v: %v", lease.Params, p, err)
			}
			// The spec comes back as sent, with empty rule names spelled out.
			want := lease.Params
			want.Select = cmp.Or(want.Select, spec.Select)
			want.Branch = cmp.Or(want.Branch, spec.Branch)
			want.Bound = cmp.Or(want.Bound, spec.Bound)
			if spec != want {
				t.Fatalf("round trip %+v -> %+v", lease.Params, spec)
			}
		}
		_ = checkLease(&lease)
	})
}

// coordinatorRequests decodes a body as each /dist/v1/ request type
// through the coordinator's envelope.
var coordinatorRequests = []func(http.ResponseWriter, *http.Request) bool{
	envelope[JoinRequest], envelope[LeaseRequest], envelope[ReportRequest],
	envelope[IncumbentRequest], envelope[HeartbeatRequest],
	envelope[DrainRequest], envelope[ReleaseRequest],
}

func envelope[T any](w http.ResponseWriter, r *http.Request) bool {
	_, ok := peer.DecodeJSON[T](w, r)
	return ok
}

// checkLease runs a lease through the worker's decode path: the solve it
// ships, then each slice's prefix through core's checks under the shipped
// params, as the worker's slice solve runs them. The context is canceled,
// so no solve searches anything. It returns the first error.
func checkLease(lease *LeaseResponse) error {
	g, plat, p, err := decodeSolve(lease)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sl := range lease.Slices {
		sp := p
		sp.Prefix, sp.UpperBound, sp.FixedUpperBound = sl.Prefix, core.UpperBoundFixed, taskgraph.Time(lease.Incumbent)
		if _, err := core.SolveContext(ctx, g, plat, sp); err != nil {
			return err
		}
	}
	return nil
}

// readSeed reads one []byte input of the FuzzWire seed corpus.
func readSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzWire", name))
	if err != nil {
		t.Fatal(err)
	}
	_, line, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
	return []byte(body)
}

// TestWireSeedsRejected pins the wire changes the seed corpus holds: a
// report from a worker that still sends the digest fields, or the
// transposition-table gauges, is a 400 under the strict envelope that
// names the field, and a duplicate-free lease whose prefix breaks
// (start, ID) order fails core's prefix check, naming the placement.
func TestWireSeedsRejected(t *testing.T) {
	for seed, field := range map[string]string{"digest-report": "digest", "dedup-report": "dedup_pruned"} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/dist/v1/report", bytes.NewReader(readSeed(t, seed)))
		if envelope[ReportRequest](rec, req) || rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), field) {
			t.Errorf("%s: %d %s, want a 400 naming %q", seed, rec.Code, rec.Body, field)
		}
	}

	var lease LeaseResponse
	if err := json.Unmarshal(readSeed(t, "dupfree-lease-out-of-order"), &lease); err != nil {
		t.Fatal(err)
	}
	if !lease.Params.DuplicateFree {
		t.Fatal("lease seed does not ship duplicate_free")
	}
	if err := checkLease(&lease); err == nil || !strings.Contains(err.Error(), "placement 1 (task 0 on p1") {
		t.Errorf("out-of-order duplicate-free prefix: %v, want a rejection naming placement 1", err)
	}
	lease.Params.DuplicateFree = false
	if err := checkLease(&lease); err != nil {
		t.Errorf("the same prefix without the knob: %v", err)
	}
}
