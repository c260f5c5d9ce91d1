// Command perfbench is the repository benchmark. It boots the shipped
// configuration — treaty.NewCluster with 3 nodes in ModeSconeEncStab and
// every other option at its default, as cmd/treaty-server boots it — and
// drives it through the public client path (Cluster.NewClient →
// BeginTxn/TxnGet/TxnPut/TxnCommit) with a closed loop of 2 clients, each
// its own Client session, from one process. Interactive transactional
// callers wait for each reply; 2 clients match the 2 cores the benchmark
// was tuned on, so the modelled enclave spin and the real work share the
// host's cores without a queue of waiting clients.
//
// Usage (from the repository root; run.py builds this command first):
//
//	python3 perfbench/run.py --workload ycsb-write --seed 1 --seconds 10 --trace 0
//
// Workloads (10 operations per transaction and 1000 B values, as in the
// paper; a YCSB transaction touches 10 distinct keys in ascending order,
// so under strict two-phase locking no two clients deadlock into a lock
// timeout and no attempt fails):
//
//   - ycsb-write: YCSB 20% reads / 80% writes, uniform over 10k keys
//     (~10 MB, fits the 3 × 32 MiB block caches). The commit path does the
//     work: Clog and WAL appends, trusted-counter rounds and the
//     prepare/commit broadcasts; memtable flushes add background work. A
//     commit-path change should move its commit_tps and txn_p50_ms; a
//     read-path change should leave it flat.
//   - ycsb-ro-large: read-only YCSB, uniform over 150k keys preloaded and
//     flushed to SSTables (~50 MB per node, above the 32 MiB cache). The
//     read path does the work: block-cache misses, SSTable decrypt and
//     verify, bloom filters and read-only 2PC votes; the commit path only
//     writes the coordinator's prepare record. A read-path change should
//     move its txn_p50_ms; a commit-path change should leave it flat.
//   - tpcc-10w: the standard TPC-C mix over 10 warehouses (10 districts,
//     60 customers per district, 1000 items), each client homed on its own
//     warehouse. Read-modify-write on hot district and stock rows, inserts
//     that grow the data, variable write sets, remote-warehouse
//     transactions with several participants and spec rollbacks. A YCSB
//     gain that costs multi-row or mixed transactions shows here. It is
//     not in BENCHMARK.json: on the 2-vCPU host the benchmark was tuned
//     on, its 25-second runs spread by 0.21-0.33 of their median (it
//     commits ~60 transactions a second), and the run budget left no room
//     to lengthen them. Run it by hand.
//
// With --trace 0 the command measures the end-to-end metrics with tracing
// off: commit_tps and txn_p50_ms (BeginTxn to TxnCommit returning, as
// the client sees it), success_ratio (successful attempts over all
// attempts; a failure is any begin, operation or commit error, and
// TPC-C's spec rollbacks count as successes), cpu_ms_per_txn (process
// user+sys CPU per successful transaction, where the modelled enclave
// spin shows), setup_s (the median of several boot + preload + flush
// rounds) and peak_rss_mb. It also prints three numbers that spread too
// far from run to run on a shared 2-vCPU host to carry a bound, and that
// the traced run reports as per-layer metrics: the p99 latency, the
// cluster's bytes on disk, and the recovery time. Recovery is
// CrashNode(0) + RestartNode(0) until a fresh client commits a write node
// 0 owns and reads it back, the median of several restarts on the set-up
// rounds the measurement does not use, each after the same
// 250-transaction history: after a timed phase the log to replay would
// be as long as that run's throughput. The measured cluster is never
// crashed, so its layer counters cover one incarnation.
//
// With --trace 1 it measures in three phases of a third of --seconds
// each: the client path untraced, the client path with a span around
// every public call and CPU, mutex and block profiles, and the
// coordinators directly (Node.Begin → DistTxn), which separates the
// client-session hop from 2PC. Each phase draws fresh transactions from
// the same generator, so no phase reads blocks another just cached. It
// reports the per-layer metrics of layers.go and the tracing overhead
// (traced against untraced commit_tps and txn_p50_ms), and writes the
// spans and profiles under <work>/trace/<workload>-seed<seed>.
//
// Every run checks its outputs: the YCSB workloads pass each transaction
// through the audit recorder and fail on any serializability violation,
// and tpcc-10w checks every district's order counter against its orders.
// Non-vacuity gates fail a run whose workload stopped exercising its
// layer. A failed run prints no result line and exits with status 1.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"treaty/internal/enclave"
)

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: ycsb-write, ycsb-ro-large or tpcc-10w")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "length of each measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "directory for cluster data, spans and profiles")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// The enclave cost model times its spin loop once per process, on
	// first use. Taken while the cluster's goroutines share the cores,
	// that calibration lands ~15% high or low from one process to the
	// next, and every modelled enclave cost with it; take it now, before
	// anything else runs.
	enclave.Spin(time.Nanosecond)
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run reports.
type result struct {
	attempted, failed int
	metrics           []metric
}

// print writes the metrics as a table, then the one-line JSON result.
func (r result) print(f *os.File) {
	out := map[string]map[string]any{}
	for _, m := range r.metrics {
		fmt.Fprintf(f, "%-40s %14.6f %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Fprintln(f, string(line))
}

// hostLine records where the numbers came from, so results from
// different hosts are never compared.
func hostLine(o options) string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q workload=%s seed=%d seconds=%d trace=%t clients=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(),
		o.workload, o.seed, o.seconds, o.trace, clients)
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
