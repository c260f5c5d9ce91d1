package main

import (
	"runtime"
	"time"

	"treaty"
	"treaty/internal/obs"
)

// delta holds layer counters summed over the cluster's nodes; between
// two snapshots it is their difference.
type delta map[string]uint64

func (d delta) sub(before delta) delta {
	out := delta{}
	for k, v := range d {
		out[k] = v - before[k]
	}
	return out
}

// layerSnap is one cut of every layer counter the benchmark reaches
// through public functions: the node registries (Cluster.Snapshot),
// DB.Stats, Endpoint.Stats, Runtime.Stats, Network.Stats and the Go
// runtime's memory statistics.
type layerSnap struct {
	counters delta
	// hists holds each node's histograms by name.
	hists map[string][]obs.HistSnapshot
}

func snapLayers(c *treaty.Cluster) layerSnap {
	s := layerSnap{counters: delta{}, hists: map[string][]obs.HistSnapshot{}}
	for _, snap := range c.Snapshot() {
		for k, v := range snap.Counters {
			s.counters[k] += v
		}
		for k, h := range snap.Histograms {
			s.hists[k] = append(s.hists[k], h)
		}
	}
	for i := 0; i < c.Nodes(); i++ {
		n := c.Node(i)
		db := n.DB().Stats()
		s.counters["db.flushes"] += db.Flushes
		s.counters["db.compactions"] += db.Compactions
		ep := n.Endpoint().Stats()
		s.counters["ep.requests"] += ep.Requests
		s.counters["ep.retries"] += ep.Retries
		rt := n.Runtime().Stats()
		s.counters["rt.world_switches"] += rt.WorldSwitches
		s.counters["rt.async_syscalls"] += rt.AsyncSyscalls
		s.counters["rt.page_faults"] += rt.PageFaults
	}
	net := c.Net().Stats()
	s.counters["net.packets"] = net.Delivered
	s.counters["net.bytes"] = net.BytesDelivered
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.counters["go.alloc_bytes"] = m.TotalAlloc
	s.counters["go.gc_cycles"] = uint64(m.NumGC)
	return s
}

// histQ merges one quantile of a histogram across nodes, weighting each
// node's estimate by its sample count (the registries export quantiles,
// not buckets). It is 0 when no node observed anything.
func (s layerSnap) histQ(name string, q func(obs.HistSnapshot) int64) float64 {
	var sum, n float64
	for _, h := range s.hists[name] {
		sum += float64(q(h)) * float64(h.Count)
		n += float64(h.Count)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func p50(h obs.HistSnapshot) int64 { return h.P50 }
func p95(h obs.HistSnapshot) int64 { return h.P95 }
func p99(h obs.HistSnapshot) int64 { return h.P99 }

// histMs is histQ for a nanosecond histogram, in milliseconds.
func (s layerSnap) histMs(name string, q func(obs.HistSnapshot) int64) float64 {
	return s.histQ(name, q) / float64(time.Millisecond)
}

// layerInputs is what the traced run measured.
type layerInputs struct {
	// untraced, traced and direct ran the workload on the client path
	// without and with spans, then at the coordinators.
	untraced, traced, direct phase
	// d is the layer counters' change over the traced phase; after is
	// the snapshot that closed it.
	d     delta
	after layerSnap
	// engineGet is the median engine read time after the traced phase.
	engineGet time.Duration
	// disk is the bytes under the cluster's directory after all phases.
	disk int64
	// recovery is set-up's median recovery time of node 0.
	recovery time.Duration
}

// layerMetrics derives the per-layer metrics. Counts are per successful
// transaction of the traced phase. Histogram quantiles come from the
// node registries, which accumulate from boot: they cover the warm-up
// and both client-path phases, all the same workload. A stage no
// transaction reaches reads 0 (on ycsb-ro-large: log-force,
// counter-stabilize and commit).
//
// Each group names the end-to-end metric it should move, and where:
//   - core (spans around the public calls, the untraced phase's tail
//     latency, and the recovery time of node 0, which log truncation
//     should move): begin and op times move
//     txn_p50_ms on ycsb-ro-large; commit times move txn_p50_ms and
//     txn_p99_ms on ycsb-write; the client hop (client path minus
//     coordinator-direct p50) moves txn_p50_ms everywhere, most on
//     ycsb-ro-large.
//   - twopc: stage times move txn_p50_ms and txn_p99_ms on ycsb-write and
//     tpcc-10w; Clog syncs and group size move commit_tps on ycsb-write
//     and, through the prepare record, txn_p50_ms on ycsb-ro-large;
//     read-only votes move ycsb-ro-large; prepares and aborts move
//     success_ratio and txn_p99_ms on tpcc-10w.
//   - lsm: WAL appends and syncs (0 in the shipped configuration) and the
//     commit group move commit_tps on ycsb-write; cache and bloom rates
//     and the engine read time move txn_p50_ms on ycsb-ro-large and
//     nothing on ycsb-write; flushes and compactions move txn_p99_ms and
//     lsm.disk_mb on ycsb-write and tpcc-10w.
//   - counter: rounds, round time, batching and failures move txn_p50_ms
//     and commit_tps on ycsb-write.
//   - erpc: requests move txn_p50_ms everywhere; retries move txn_p99_ms.
//   - simnet: packets and bytes move cpu_ms_per_txn on ycsb-write.
//   - enclave: world switches, async syscalls and page faults move
//     cpu_ms_per_txn everywhere; page faults move ycsb-ro-large.
//   - runtime: allocation and GC cycles move cpu_ms_per_txn and
//     peak_rss_mb.
//
// Lock waits in txn and run-queue waits in fibers have no public
// counter; they show only in tpcc-10w's txn_p99_ms and success_ratio.
func layerMetrics(in layerInputs) []metric {
	d, h, tr := in.d, in.after, in.traced
	txns := float64(tr.committed())
	per := func(k string) float64 { return float64(d[k]) / txns }
	share := func(part, whole string) float64 {
		if d[whole] == 0 {
			return 0
		}
		return float64(d[part]) / float64(d[whole])
	}
	spanMs := func(q float64, names ...string) float64 {
		return ms(quantile(spanDurations(tr.spans, names...), q))
	}
	return []metric{
		{"core.txn_p99_ms", ms(quantile(in.untraced.lats, .99)), "ms"},
		{"core.recovery_s", in.recovery.Seconds(), "s"},
		{"core.begin_ms.p50", spanMs(.5, "begin"), "ms"},
		{"core.op_ms.p50", spanMs(.5, "get", "put"), "ms"},
		{"core.op_ms.p99", spanMs(.99, "get", "put"), "ms"},
		{"core.commit_ms.p50", spanMs(.5, "commit"), "ms"},
		{"core.commit_ms.p99", spanMs(.99, "commit"), "ms"},
		{"core.client_hop_ms.p50", ms(quantile(in.untraced.lats, .5) - quantile(in.direct.lats, .5)), "ms"},

		{"twopc.stage.execute_ms.p50", h.histMs("twopc.stage.execute", p50), "ms"},
		{"twopc.stage.prepare_ms.p50", h.histMs("twopc.stage.prepare", p50), "ms"},
		{"twopc.stage.log-force_ms.p50", h.histMs("twopc.stage.log-force", p50), "ms"},
		{"twopc.stage.counter-stabilize_ms.p50", h.histMs("twopc.stage.counter-stabilize", p50), "ms"},
		{"twopc.stage.counter-stabilize_ms.p99", h.histMs("twopc.stage.counter-stabilize", p99), "ms"},
		{"twopc.stage.commit_ms.p50", h.histMs("twopc.stage.commit", p50), "ms"},
		{"twopc.clog.syncs_per_txn", per("twopc.clog.syncs"), "count/txn"},
		{"twopc.clog.group_p50", h.histQ("twopc.clog.group_size", p50), "count"},
		{"twopc.readonly_votes_per_txn", per("twopc.part.readonly_votes"), "count/txn"},
		{"twopc.part.prepares_per_txn", per("twopc.part.prepares"), "count/txn"},
		{"twopc.aborts_per_txn", per("twopc.tx.aborted"), "count/txn"},

		{"lsm.wal.appends_per_txn", per("lsm.wal.appends"), "count/txn"},
		{"lsm.wal.syncs_per_txn", per("lsm.wal.syncs"), "count/txn"},
		{"lsm.commit.group_p50", h.histQ("lsm.commit.group_size", p50), "count"},
		{"lsm.cache.hit_rate", share("lsm.cache.hits", "lsm.cache.lookups"), "ratio"},
		{"lsm.cache.lookups_per_get", float64(d["lsm.cache.lookups"]) / float64(max(tr.gets, 1)), "count/get"},
		{"lsm.bloom.filter_rate", share("lsm.bloom.negatives", "lsm.bloom.checks"), "ratio"},
		{"lsm.flushes", float64(d["db.flushes"]), "count"},
		{"lsm.compactions", float64(d["db.compactions"]), "count"},
		{"lsm.get_us.p50", float64(in.engineGet) / float64(time.Microsecond), "us"},
		{"lsm.disk_mb", float64(in.disk) / (1 << 20), "MB"},

		{"counter.rounds_per_txn", per("counter.rounds"), "count/txn"},
		{"counter.round_ms.p50", h.histMs("counter.round.latency_ns", p50), "ms"},
		{"counter.round_ms.p99", h.histMs("counter.round.latency_ns", p99), "ms"},
		{"counter.batch_p95", h.histQ("counter.batch.size", p95), "count"},
		{"counter.round_failures", float64(d["counter.round.failures"]), "count"},

		{"erpc.requests_per_txn", per("ep.requests"), "count/txn"},
		{"erpc.retries_per_txn", per("ep.retries"), "count/txn"},
		{"simnet.packets_per_txn", per("net.packets"), "count/txn"},
		{"simnet.bytes_per_txn", per("net.bytes"), "B/txn"},

		{"enclave.world_switches_per_txn", per("rt.world_switches"), "count/txn"},
		{"enclave.async_syscalls_per_txn", per("rt.async_syscalls"), "count/txn"},
		{"enclave.page_faults_per_txn", per("rt.page_faults"), "count/txn"},

		{"runtime.alloc_kb_per_txn", per("go.alloc_bytes") / 1024, "KiB/txn"},
		{"runtime.gc_cycles", float64(d["go.gc_cycles"]), "count"},

		{"trace.commit_tps", tr.tps(), "1/s"},
		{"trace.txn_p50_ms", ms(quantile(tr.lats, .5)), "ms"},
		{"trace.overhead.commit_tps_ratio", tr.tps() / in.untraced.tps(), "ratio"},
		{"trace.overhead.txn_p50_ratio", ms(quantile(tr.lats, .5)) / ms(quantile(in.untraced.lats, .5)), "ratio"},
	}
}
