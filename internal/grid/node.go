package grid

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/peer"
)

// Store is the local result cache a Node reads through and fills. The
// server's LRU satisfies it; bodies are opaque response bytes keyed by
// the canonical cache key.
type Store interface {
	Get(key string) ([]byte, bool)
	Put(key string, body []byte)
}

// NodeConfig wires one replica into the grid.
type NodeConfig struct {
	// Self is this replica's advertised base URL — its ring identity.
	Self string

	// Peers are the other replicas' base URLs. The fleet is static
	// configuration; liveness is dynamic (failed RPCs mark a peer down,
	// a background probe brings it back).
	Peers []string

	// VNodes per member (default DefaultVNodes).
	VNodes int

	// FlightTTL bounds a single-flight fill claim: a granted fill that
	// never comes back stops blocking new claimants after this long
	// (default 75s, above the server's max solve budget).
	FlightTTL time.Duration

	// FetchWait is the default patience of a read-through get, or of the
	// owner's own request (Join), blocked on an open flight (default
	// 10s); a request context's deadline wins when shorter.
	FetchWait time.Duration

	// ProbeInterval is how often down peers are re-probed (default 2s).
	ProbeInterval time.Duration

	// Client is the HTTP client for peer RPCs. Default has no global
	// timeout: flight-blocked gets legitimately hold the line, and every
	// call is bounded by its context instead.
	Client *http.Client

	// Logf, when non-nil, receives membership diagnostics.
	Logf func(format string, args ...any)
}

// Node is one replica's view of the cache grid: the live ring, the
// single-flight table for keys it owns, and clients to its peers.
//
// Ownership protocol, from the requesting replica's side (the server's
// request path):
//
//  1. owner := node.Owner(key); if owner is self (or the ring is
//     empty), serve locally through the local cache's singleflight.
//  2. otherwise Fetch from the owner: a hit returns the cached body; a
//     miss means this replica was granted the fill claim (or the owner
//     is down) — solve locally, respond, and FillBack the body to the
//     owner asynchronously.
//
// From the owning replica's side: a get for a present key returns it; a
// get for an absent key with no open flight opens one and grants the
// fill to the caller; a get finding an open flight blocks (up to the
// caller's patience) for the fill, then serves it. The owner's own
// requests take part in the same table (Join): a local solve opens the
// key's flight, so peers wait for it, and a local request finding an open
// flight waits for it too. One key therefore has one flight on its owner,
// whichever side asks first. Racing fills are benign by construction —
// cached bodies are deterministic functions of the key, so last-put-wins
// never changes observable bytes.
type Node struct {
	cfg  NodeConfig
	self string

	mu      sync.Mutex
	store   Store
	down    map[string]bool
	ring    *Ring
	flights map[string]*flight
	clients map[string]*peer.Client
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup

	peerHits      atomic.Int64
	peerMisses    atomic.Int64
	fillsGranted  atomic.Int64
	fillBacksSent atomic.Int64
	fillBacksRecv atomic.Int64
	fetchErrors   atomic.Int64
	flightWaits   atomic.Int64
	ringRebuilds  atomic.Int64
}

// flight is one open single-flight claim on an owned key: a fill granted
// to a peer, or a solve on the owner itself.
type flight struct {
	filler   string // replica granted the fill, for diagnostics
	deadline time.Time
	done     chan struct{}
}

// NewNode builds a replica node and starts its down-peer prober (when
// it has peers). Call Bind before serving, Close on shutdown.
func NewNode(cfg NodeConfig) *Node {
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.FlightTTL <= 0 {
		cfg.FlightTTL = 75 * time.Second
	}
	if cfg.FetchWait <= 0 {
		cfg.FetchWait = 10 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	n := &Node{
		cfg:     cfg,
		self:    cfg.Self,
		down:    map[string]bool{},
		flights: map[string]*flight{},
		clients: map[string]*peer.Client{},
		stop:    make(chan struct{}),
	}
	n.rebuildLocked()
	if len(cfg.Peers) > 0 {
		n.wg.Add(1)
		go n.probeLoop()
	}
	return n
}

// Bind attaches the local result store the node reads through and fills.
func (n *Node) Bind(store Store) {
	n.mu.Lock()
	n.store = store
	n.mu.Unlock()
}

// Close stops the prober, waits for in-flight fill-backs, and drops the
// peer transport's idle connections (their keep-alive goroutines would
// otherwise outlive the node and read as a shutdown leak).
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
	n.cfg.Client.CloseIdleConnections()
}

// Self returns this replica's ring identity.
func (n *Node) Self() string { return n.self }

// Owner returns the live ring owner of key ("" on an empty ring, which
// callers treat as self).
func (n *Node) Owner(key string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.Owner(key)
}

// Members returns the live member list (self plus peers not marked
// down), sorted.
func (n *Node) Members() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.Members()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// rebuildLocked rebuilds the ring over self + live peers. Callers hold
// n.mu (NewNode calls it before the node is shared).
func (n *Node) rebuildLocked() {
	members := make([]string, 0, 1+len(n.cfg.Peers))
	members = append(members, n.self)
	for _, p := range n.cfg.Peers {
		if !n.down[p] {
			members = append(members, p)
		}
	}
	n.ring = NewRing(members, n.cfg.VNodes)
	n.ringRebuilds.Add(1)
}

// markDown removes a peer from the live ring after a failed RPC; its
// key range re-owns onto the survivors until a probe brings it back.
func (n *Node) markDown(url string) {
	if url == n.self {
		return
	}
	n.mu.Lock()
	if n.down[url] {
		n.mu.Unlock()
		return
	}
	n.down[url] = true
	n.rebuildLocked()
	n.mu.Unlock()
	n.logf("grid: peer %s down, ring re-owned across survivors", url)
}

func (n *Node) client(url string) *peer.Client {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := n.clients[url]
	if c == nil {
		c = &peer.Client{Base: url, HTTP: n.cfg.Client}
		n.clients[url] = c
	}
	return c
}

// probeLoop re-probes down peers until Close.
func (n *Node) probeLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			n.mu.Lock()
			var probe []string
			for url, d := range n.down {
				if d {
					probe = append(probe, url)
				}
			}
			n.mu.Unlock()
			sort.Strings(probe)
			for _, url := range probe {
				ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ProbeInterval)
				var resp PingResponse
				err := n.client(url).Post(ctx, "/grid/v1/ping", PingRequest{From: n.self}, &resp)
				cancel()
				if err != nil {
					continue
				}
				n.mu.Lock()
				delete(n.down, url)
				n.rebuildLocked()
				n.mu.Unlock()
				n.logf("grid: peer %s back up, ring re-owned", url)
			}
		}
	}
}

// Fetch asks the owner replica for key. found=true carries the cached
// body (a peer hit). found=false means this replica should solve the
// key itself — either the owner granted it the fill claim or the owner
// is unreachable (then also marked down) — and FillBack afterwards.
func (n *Node) Fetch(ctx context.Context, owner, key string) (body []byte, found bool) {
	wait := n.cfg.FetchWait
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl) - 250*time.Millisecond; rem < wait {
			wait = rem
		}
	}
	if wait <= 0 {
		return nil, false
	}
	// The RPC deadline leaves slack past the server-side flight wait so
	// a just-filled body still makes it back.
	cctx, cancel := context.WithTimeout(ctx, wait+2*time.Second)
	defer cancel()
	var resp GetResponse
	err := n.client(owner).Post(cctx, "/grid/v1/get", GetRequest{
		Key: key, From: n.self, WaitMS: wait.Milliseconds(),
	}, &resp)
	if err != nil {
		n.fetchErrors.Add(1)
		n.markDown(owner)
		return nil, false
	}
	if resp.Found {
		n.peerHits.Add(1)
		return resp.Body, true
	}
	n.peerMisses.Add(1)
	return nil, false
}

// FillBack asynchronously ships a freshly solved body to the owner,
// completing the fill claim Fetch was granted. Best-effort: a failure
// marks the owner down, and the claim lapses via FlightTTL.
func (n *Node) FillBack(owner, key string, body []byte) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var resp PutResponse
		err := n.client(owner).Post(ctx, "/grid/v1/put", PutRequest{
			Key: key, From: n.self, Body: body,
		}, &resp)
		if err != nil {
			n.fetchErrors.Add(1)
			n.markDown(owner)
			return
		}
		n.fillBacksSent.Add(1)
	}()
}

// ---- HTTP surface (the owner side) ----

// Handler returns the peer protocol endpoints under /grid/v1/.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/grid/v1/get", n.handleGet)
	mux.HandleFunc("/grid/v1/put", n.handlePut)
	mux.HandleFunc("/grid/v1/ping", n.handlePing)
	return mux
}

func (n *Node) handleGet(w http.ResponseWriter, r *http.Request) {
	req, ok := peer.DecodeJSON[GetRequest](w, r)
	if !ok {
		return
	}
	n.mu.Lock()
	store := n.store
	n.mu.Unlock()
	if store == nil || req.Key == "" {
		peer.WriteError(w, http.StatusServiceUnavailable, "grid: node not bound")
		return
	}
	if body, ok := store.Get(req.Key); ok {
		peer.WriteJSON(w, GetResponse{Found: true, Body: body})
		return
	}

	now := time.Now()
	n.mu.Lock()
	fl := n.flights[req.Key]
	if fl == nil || now.After(fl.deadline) {
		// A flight stores its body before it leaves the table, so one that
		// landed since the miss above is in the store now.
		if body, ok := store.Get(req.Key); ok {
			n.mu.Unlock()
			peer.WriteJSON(w, GetResponse{Found: true, Body: body})
			return
		}
		// No live flight: grant the fill claim to the caller. An expired
		// flight is replaced — its filler died or forgot; the new claim
		// races any zombie fill harmlessly.
		n.replaceLocked(req.Key, fl, &flight{
			filler:   req.From,
			deadline: now.Add(n.cfg.FlightTTL),
			done:     make(chan struct{}),
		})
		n.mu.Unlock()
		n.fillsGranted.Add(1)
		peer.WriteJSON(w, GetResponse{Fill: true})
		return
	}
	n.mu.Unlock()

	// A fill or an owner-side solve is in flight: block for it up to the
	// caller's patience (capped by the claim's remaining TTL). If it lands
	// without a body (its solver errored) or patience runs out with the
	// claim still open, the caller solves itself and races the slow
	// flight; first fill-back wins and both bodies are identical by
	// construction.
	n.flightWaits.Add(1)
	wait := n.cfg.FetchWait
	if req.WaitMS > 0 {
		wait = time.Duration(req.WaitMS) * time.Millisecond
	}
	if n.wait(r.Context(), fl, wait) != nil {
		return // the caller is gone
	}
	if body, ok := store.Get(req.Key); ok {
		peer.WriteJSON(w, GetResponse{Found: true, Body: body})
		return
	}
	peer.WriteJSON(w, GetResponse{Fill: true})
}

// Join enters an owner-side solve of key into the flight table that also
// holds the fill claims granted to peers, so the owner runs one flight per
// key whichever side asks first. With no live flight it registers one and
// returns its done func, to be called once the solve's body is stored (or
// the solve failed); a peer get meanwhile waits for it instead of being
// granted a claim. With a live flight — a peer's claim or another local
// solve — it waits for that flight, bounded by ctx, FetchWait and the
// claim's deadline, and returns a nil done: the caller re-reads its cache
// and solves only on a miss. The error is ctx's, when ctx ends the wait.
func (n *Node) Join(ctx context.Context, key string) (done func(), err error) {
	now := time.Now()
	n.mu.Lock()
	fl := n.flights[key]
	if fl == nil || now.After(fl.deadline) {
		own := &flight{filler: n.self, deadline: now.Add(n.cfg.FlightTTL), done: make(chan struct{})}
		n.replaceLocked(key, fl, own)
		n.mu.Unlock()
		return func() { n.land(key, own) }, nil
	}
	n.mu.Unlock()
	n.flightWaits.Add(1)
	return nil, n.wait(ctx, fl, n.cfg.FetchWait)
}

// replaceLocked installs fl for key in place of old (nil or expired).
// Whoever removes a flight from the table closes it, so a flight closes
// exactly once whether its solve, a fill-back or its replacement ends it.
// Callers hold n.mu.
func (n *Node) replaceLocked(key string, old, fl *flight) {
	if old != nil {
		close(old.done)
	}
	n.flights[key] = fl
}

// land removes fl from the table, and closes it, unless a fill-back or a
// replacement already did.
func (n *Node) land(key string, fl *flight) {
	n.mu.Lock()
	mine := n.flights[key] == fl
	if mine {
		delete(n.flights, key)
	}
	n.mu.Unlock()
	if mine {
		close(fl.done)
	}
}

// wait blocks until fl lands or patience runs out, capped by the claim's
// remaining TTL; it returns ctx's error if ctx ends first.
func (n *Node) wait(ctx context.Context, fl *flight, patience time.Duration) error {
	if rem := time.Until(fl.deadline); rem < patience {
		patience = rem
	}
	timer := time.NewTimer(patience)
	defer timer.Stop()
	select {
	case <-fl.done:
		return nil
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (n *Node) handlePut(w http.ResponseWriter, r *http.Request) {
	req, ok := peer.DecodeJSON[PutRequest](w, r)
	if !ok {
		return
	}
	n.mu.Lock()
	store := n.store
	n.mu.Unlock()
	stored := false
	if store != nil && req.Key != "" && len(req.Body) > 0 {
		store.Put(req.Key, req.Body)
		stored = true
		n.fillBacksRecv.Add(1)
	}
	// Land the flight only after the body is stored, so that whoever finds
	// the flight gone finds the body.
	n.mu.Lock()
	fl := n.flights[req.Key]
	delete(n.flights, req.Key)
	n.mu.Unlock()
	if fl != nil {
		close(fl.done)
	}
	peer.WriteJSON(w, PutResponse{Stored: stored})
}

func (n *Node) handlePing(w http.ResponseWriter, r *http.Request) {
	if _, ok := peer.DecodeJSON[PingRequest](w, r); !ok {
		return
	}
	peer.WriteJSON(w, PingResponse{OK: true, Self: n.self})
}

// ---- wire types ----

// GetRequest is a read-through get against a key's ring owner. From
// names the requesting replica (it becomes the filler if the owner
// grants the claim); WaitMS is the caller's patience for an open
// flight.
type GetRequest struct {
	Key    string `json:"key"`
	From   string `json:"from,omitempty"`
	WaitMS int64  `json:"wait_ms,omitempty"`
}

// GetResponse: Found carries the body; otherwise Fill tells the caller
// it holds the fill claim (solve locally, then put the body back).
type GetResponse struct {
	Found bool   `json:"found"`
	Fill  bool   `json:"fill,omitempty"`
	Body  []byte `json:"body,omitempty"`
}

// PutRequest fills a solved body back to the key's owner, completing
// the outstanding flight.
type PutRequest struct {
	Key  string `json:"key"`
	From string `json:"from,omitempty"`
	Body []byte `json:"body"`
}

// PutResponse acknowledges a fill-back.
type PutResponse struct {
	Stored bool `json:"stored"`
}

// PingRequest is the liveness probe for a down peer.
type PingRequest struct {
	From string `json:"from,omitempty"`
}

// PingResponse confirms liveness and echoes the peer's identity.
type PingResponse struct {
	OK   bool   `json:"ok"`
	Self string `json:"self,omitempty"`
}

// NodeSnapshot is the grid node's gauge block in /metrics.
type NodeSnapshot struct {
	Self          string   `json:"self"`
	Members       []string `json:"members"`
	PeersDown     []string `json:"peers_down,omitempty"`
	OpenFlights   int      `json:"open_flights"`
	PeerHits      int64    `json:"peer_hits"`
	PeerMisses    int64    `json:"peer_misses"`
	FillsGranted  int64    `json:"fills_granted"`
	FillBacksSent int64    `json:"fill_backs_sent"`
	FillBacksRecv int64    `json:"fill_backs_received"`
	FetchErrors   int64    `json:"fetch_errors"`
	FlightWaits   int64    `json:"flight_waits"`
	RingRebuilds  int64    `json:"ring_rebuilds"`
}

// Snapshot returns the node's counters and membership view.
func (n *Node) Snapshot() NodeSnapshot {
	n.mu.Lock()
	var downs []string
	for url, d := range n.down {
		if d {
			downs = append(downs, url)
		}
	}
	open := len(n.flights)
	members := n.ring.Members()
	n.mu.Unlock()
	sort.Strings(downs)
	return NodeSnapshot{
		Self:          n.self,
		Members:       members,
		PeersDown:     downs,
		OpenFlights:   open,
		PeerHits:      n.peerHits.Load(),
		PeerMisses:    n.peerMisses.Load(),
		FillsGranted:  n.fillsGranted.Load(),
		FillBacksSent: n.fillBacksSent.Load(),
		FillBacksRecv: n.fillBacksRecv.Load(),
		FetchErrors:   n.fetchErrors.Load(),
		FlightWaits:   n.flightWaits.Load(),
		RingRebuilds:  n.ringRebuilds.Load(),
	}
}
