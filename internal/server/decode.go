package server

import (
	"bytes"
	"io"
	"net/http"
	"slices"

	"repro/internal/jsonread"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Request bodies are decoded in one pass with internal/jsonread, under
// encoding/json's rules (see that package): each body type lists its
// member names and decodes the value of one member by name, and the
// GraphRequest fields every body shares are decoded by one method. The
// request types have no UnmarshalJSON, so encoding/json on them stays the
// reference the fuzz and round-trip tests hold these decoders to.

// request is one of the six /v1 request bodies.
type request interface {
	// fields lists the json member names of the body type.
	fields() []string
	// decodeField decodes the value of member name ("" for a member the
	// type does not have, which is skipped).
	decodeField(r *jsonread.Reader, name string)
}

// with returns base followed by more, never sharing base's array.
func with(base []string, more ...string) []string {
	return append(slices.Clip(base), more...)
}

var (
	graphRequestFields = []string{"graph", "procs", "speed_factors", "affinities"}
	solveFields        = with(graphRequestFields, "mode", "select", "branch", "bound", "br", "budget_ms", "workers", "distributed", "dedup")
	batchFields        = []string{"requests"}
	anytimeFields      = with(graphRequestFields, "budget_ms", "workers", "improve_iters", "seed")
	listFields         = with(graphRequestFields, "policy")
	recoverFields      = with(graphRequestFields, "schedule", "faults", "budget_ms", "workers")
	placementFields    = []string{"task", "proc", "start", "finish"}
	faultFields        = []string{"kind", "proc", "at", "task", "extra"}
)

// readBody reads a request body of at most maxBodyBytes. A longer body is
// rejected whole.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var size int64
	if r.ContentLength > 0 && r.ContentLength <= maxBodyBytes {
		size = r.ContentLength
	}
	// ReadFrom keeps MinRead bytes free before each read, so a buffer of
	// the announced length plus MinRead is read without growing.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeRequest decodes the first JSON value of body into q. Bytes after
// it are ignored, as json.Decoder ignores them; an empty body is io.EOF.
func decodeRequest(body []byte, q request) error {
	r := jsonread.New(body)
	if r.AtEOF() {
		return io.EOF
	}
	readObject(r, q)
	return r.Err()
}

// readObject decodes one object into q; null leaves q unchanged.
func readObject(r *jsonread.Reader, q request) {
	if r.Null() {
		return
	}
	fields := q.fields()
	for more := r.Object(); more; more = r.More() {
		q.decodeField(r, r.Key(fields))
	}
}

func (q *GraphRequest) fields() []string { return graphRequestFields }

// decodeField decodes the members every request body shares; the other
// body types fall through to it.
func (q *GraphRequest) decodeField(r *jsonread.Reader, name string) {
	switch name {
	case "graph":
		if r.Null() {
			q.Graph = nil
			return
		}
		if q.Graph == nil {
			q.Graph = new(taskgraph.Graph)
		}
		q.Graph.DecodeJSON(r)
	case "procs":
		jsonread.Int(r, &q.Procs)
	case "speed_factors":
		q.SpeedFactors = jsonread.Slice(r, q.SpeedFactors, jsonread.Float)
	case "affinities":
		q.Affinities = jsonread.Slice(r, q.Affinities, jsonread.Uint)
	default:
		r.Skip()
	}
}

func (q *SolveRequest) fields() []string { return solveFields }

func (q *SolveRequest) decodeField(r *jsonread.Reader, name string) {
	switch name {
	case "mode":
		jsonread.String(r, &q.Mode)
	case "select":
		jsonread.String(r, &q.Select)
	case "branch":
		jsonread.String(r, &q.Branch)
	case "bound":
		jsonread.String(r, &q.Bound)
	case "br":
		jsonread.Float(r, &q.BR)
	case "budget_ms":
		jsonread.Int(r, &q.BudgetMS)
	case "workers":
		jsonread.Int(r, &q.Workers)
	case "distributed":
		jsonread.Bool(r, &q.Distributed)
	case "dedup":
		jsonread.Bool(r, &q.Dedup)
	default:
		q.GraphRequest.decodeField(r, name)
	}
}

func (q *BatchRequest) fields() []string { return batchFields }

func (q *BatchRequest) decodeField(r *jsonread.Reader, name string) {
	if name != "requests" {
		r.Skip()
		return
	}
	q.Requests = jsonread.Slice(r, q.Requests, func(r *jsonread.Reader, m *SolveRequest) { readObject(r, m) })
}

func (q *AnytimeRequest) fields() []string { return anytimeFields }

func (q *AnytimeRequest) decodeField(r *jsonread.Reader, name string) {
	switch name {
	case "budget_ms":
		jsonread.Int(r, &q.BudgetMS)
	case "workers":
		jsonread.Int(r, &q.Workers)
	case "improve_iters":
		jsonread.Int(r, &q.ImproveIters)
	case "seed":
		jsonread.Int(r, &q.Seed)
	default:
		q.GraphRequest.decodeField(r, name)
	}
}

func (q *ListRequest) fields() []string { return listFields }

func (q *ListRequest) decodeField(r *jsonread.Reader, name string) {
	if name == "policy" {
		jsonread.String(r, &q.Policy)
		return
	}
	q.GraphRequest.decodeField(r, name)
}

func (q *RecoverRequest) fields() []string { return recoverFields }

func (q *RecoverRequest) decodeField(r *jsonread.Reader, name string) {
	switch name {
	case "schedule":
		q.Schedule = jsonread.Slice(r, q.Schedule, readPlacement)
	case "faults":
		q.Faults = jsonread.Slice(r, q.Faults, readFault)
	case "budget_ms":
		jsonread.Int(r, &q.BudgetMS)
	case "workers":
		jsonread.Int(r, &q.Workers)
	default:
		q.GraphRequest.decodeField(r, name)
	}
}

func readPlacement(r *jsonread.Reader, p *sched.Placement) {
	if r.Null() {
		return
	}
	for more := r.Object(); more; more = r.More() {
		switch r.Key(placementFields) {
		case "task":
			jsonread.Int(r, &p.Task)
		case "proc":
			jsonread.Int(r, &p.Proc)
		case "start":
			jsonread.Int(r, &p.Start)
		case "finish":
			jsonread.Int(r, &p.Finish)
		default:
			r.Skip()
		}
	}
}

func readFault(r *jsonread.Reader, f *FaultSpec) {
	if r.Null() {
		return
	}
	for more := r.Object(); more; more = r.More() {
		switch r.Key(faultFields) {
		case "kind":
			jsonread.String(r, &f.Kind)
		case "proc":
			jsonread.Int(r, &f.Proc)
		case "at":
			jsonread.Int(r, &f.At)
		case "task":
			jsonread.Int(r, &f.Task)
		case "extra":
			jsonread.Int(r, &f.Extra)
		default:
			r.Skip()
		}
	}
}
