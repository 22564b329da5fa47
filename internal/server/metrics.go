package server

import (
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/grid"
)

// latency histogram: power-of-two buckets in microseconds. Bucket i counts
// observations with latency < 2^i µs (upper bounds 1µs … ~137s, the last
// bucket is the overflow). Percentiles are read off the bucket upper
// bounds, so they are conservative (never under-reported).
const latencyBuckets = 28

type histogram struct {
	count   atomic.Int64
	sumUS   atomic.Int64
	buckets [latencyBuckets]atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	h.count.Add(1)
	h.sumUS.Add(us)
	b := 0
	for b < latencyBuckets-1 && us >= 1<<b {
		b++
	}
	h.buckets[b].Add(1)
}

// quantile returns the upper bound (µs) of the bucket holding the q-th
// observation, or 0 when the histogram is empty.
func (h *histogram) quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for b := 0; b < latencyBuckets; b++ {
		seen += h.buckets[b].Load()
		if seen > rank {
			return 1 << b
		}
	}
	return 1 << (latencyBuckets - 1)
}

// LatencySnapshot is the JSON form of one histogram.
type LatencySnapshot struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  int64   `json:"p50_us"`
	P90US  int64   `json:"p90_us"`
	P99US  int64   `json:"p99_us"`
}

func (h *histogram) snapshot() LatencySnapshot {
	s := LatencySnapshot{
		Count: h.count.Load(),
		P50US: h.quantile(0.50),
		P90US: h.quantile(0.90),
		P99US: h.quantile(0.99),
	}
	if s.Count > 0 {
		s.MeanUS = float64(h.sumUS.Load()) / float64(s.Count)
	}
	return s
}

// endpointMetrics are the per-endpoint counters.
type endpointMetrics struct {
	requests    atomic.Int64 // accepted requests (any outcome)
	errors      atomic.Int64 // 4xx/5xx other than overload rejections
	rejected    atomic.Int64 // 429 admission rejections
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	latency     histogram
}

// EndpointSnapshot is the JSON form of one endpoint's counters.
type EndpointSnapshot struct {
	Requests    int64           `json:"requests"`
	Errors      int64           `json:"errors"`
	Rejected    int64           `json:"rejected"`
	CacheHits   int64           `json:"cache_hits"`
	CacheMisses int64           `json:"cache_misses"`
	Latency     LatencySnapshot `json:"latency"`
}

func (m *endpointMetrics) snapshot() EndpointSnapshot {
	return EndpointSnapshot{
		Requests:    m.requests.Load(),
		Errors:      m.errors.Load(),
		Rejected:    m.rejected.Load(),
		CacheHits:   m.cacheHits.Load(),
		CacheMisses: m.cacheMisses.Load(),
		Latency:     m.latency.snapshot(),
	}
}

// MetricsSnapshot is the /metrics document.
type MetricsSnapshot struct {
	UptimeMS int64 `json:"uptime_ms"`
	Draining bool  `json:"draining"`

	// Admission-control state: configured capacity and instantaneous load.
	Workers     int `json:"workers"`
	BusyWorkers int `json:"busy_workers"`
	QueueDepth  int `json:"queue_depth"`
	QueueLimit  int `json:"queue_limit"`

	// WorkerUtilization is busy worker-seconds over elapsed worker-seconds
	// since startup, in [0, 1].
	WorkerUtilization float64 `json:"worker_utilization"`

	Solves      int64 `json:"solves"`       // underlying solver executions
	CacheSize   int   `json:"cache_size"`   // resident cache entries
	CacheLimit  int   `json:"cache_limit"`  // configured capacity
	SharedWaits int64 `json:"shared_waits"` // callers served by another caller's in-flight solve

	// Tenants are the per-admission-class gauges (always at least the
	// default tenant).
	Tenants []grid.TenantSnapshot `json:"tenants,omitempty"`

	Endpoints map[string]EndpointSnapshot `json:"endpoints"`

	// Fleet holds the distributed-fabric counters when the server was
	// configured with one (bbserved -distributed); omitted otherwise.
	Fleet *dist.CountersSnapshot `json:"fleet,omitempty"`

	// Grid holds the cache-grid node counters when the server runs as a
	// replica (bbserved -peers); omitted otherwise.
	Grid *grid.NodeSnapshot `json:"grid,omitempty"`
}
