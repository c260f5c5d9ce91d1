package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"treaty"
	"treaty/internal/workload"
)

const (
	// clients is the closed loop's size: one Client session each.
	clients = 2
	// setupRounds is how many times set-up runs; setup_s is their median.
	setupRounds = 3
	// recoveryTxns is the history each recovery measurement replays, and
	// recoveryRestarts how many times a round recovers node 0.
	recoveryTxns     = 250
	recoveryRestarts = 3
	// warmup runs the workload before anything is measured, so caches
	// fill and lazy set-up finishes.
	warmup = 2 * time.Second
	// engineGets is how many engine reads lsm.get_us.p50 times.
	engineGets = 2000
)

// run boots the cluster, warms it up and runs the end-to-end or the
// traced measurement.
func run(o options) (result, error) {
	b, err := newBench(o.workload)
	if err != nil {
		return result{}, err
	}
	fmt.Println(hostLine(o))
	root := filepath.Join(o.work, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(root)

	c, dir, st, err := setUp(b, root, o.seed)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer c.Stop()
	cls := make([]*treaty.Client, clients)
	begins := make([]workload.Begin, clients)
	for i := range cls {
		if cls[i], err = c.NewClient(); err != nil {
			return result{}, fmt.Errorf("client: %w", err)
		}
		defer cls[i].Close()
		begins[i] = clientBegin(cls[i])
	}
	// Each phase draws fresh transactions from its own seed: a phase
	// that replayed another's keys would find their blocks cached.
	drive(workers(b, phaseSeed(o.seed, 0)), begins, nil, warmup, 0)
	// Write back the set-up's dirty pages now, so the writeback does not
	// compete with the measured phase's fsyncs.
	syscall.Sync()

	dur := time.Duration(o.seconds) * time.Second
	if o.trace {
		return traced(o, b, c, dir, begins, dur, st.recovery)
	}
	return endToEnd(o, b, c, dir, begins, dur, st)
}

// phaseSeed derives phase i's transaction seed from the run's seed.
func phaseSeed(seed int64, i int) int64 { return seed*16 + int64(i) }

// workers returns each client's transaction stream for seed.
func workers(b bench, seed int64) []worker {
	ws := make([]worker, clients)
	for i := range ws {
		ws[i] = b.worker(i, seed)
	}
	return ws
}

// setUpTimes are set-up's measurements.
type setUpTimes struct {
	// setup is the median set-up round; recovery is the median of the
	// recovery measurements.
	setup, recovery time.Duration
}

// setUp boots the shipped configuration and preloads it setupRounds
// times, keeping the last cluster. Every round but the last then runs
// recoveryTxns transactions and recovers node 0
// recoveryRestarts times: a history of fixed length gives every run the
// same log to replay, where the measured phase leaves one as long as its
// throughput.
func setUp(b bench, root string, seed int64) (*treaty.Cluster, string, setUpTimes, error) {
	var (
		setups, recs []time.Duration
		st           setUpTimes
	)
	for r := 0; ; r++ {
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", r))
		t0 := time.Now()
		c, err := treaty.NewCluster(treaty.ClusterOptions{Nodes: 3, Mode: treaty.ModeSconeEncStab, BaseDir: dir})
		if err != nil {
			return nil, "", st, err
		}
		if err := b.load(c, seed); err != nil {
			c.Stop()
			return nil, "", st, err
		}
		setups = append(setups, time.Since(t0))
		if r == setupRounds-1 {
			sortDurations(setups)
			sortDurations(recs)
			st.setup, st.recovery = quantile(setups, .5), quantile(recs, .5)
			return c, dir, st, nil
		}
		rec, err := historyAndRecover(c, b, phaseSeed(seed, 4+r))
		if err != nil {
			c.Stop()
			return nil, "", st, fmt.Errorf("recovery: %w", err)
		}
		recs = append(recs, rec...)
		if err := c.Stop(); err != nil {
			return nil, "", st, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", st, err
		}
		// Hand the stopped cluster's memory back, so peak_rss_mb is the
		// largest one cluster needs, not the garbage of every round.
		debug.FreeOSMemory()
	}
}

// historyAndRecover runs recoveryTxns transactions through fresh
// clients, checks their outputs, then times recoverNode0
// recoveryRestarts times.
func historyAndRecover(c *treaty.Cluster, b bench, seed int64) ([]time.Duration, error) {
	begins := make([]workload.Begin, clients)
	for i := range begins {
		cl, err := c.NewClient()
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		begins[i] = clientBegin(cl)
	}
	if p := drive(workers(b, seed), begins, nil, time.Minute, recoveryTxns/clients); p.committed() == 0 {
		return nil, errors.New("no transaction succeeded before the crash")
	}
	if err := b.check(c); err != nil {
		return nil, fmt.Errorf("outputs wrong: %w", err)
	}
	var recs []time.Duration
	for i := 0; i < recoveryRestarts; i++ {
		rec, err := recoverNode0(c)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// endToEnd measures the end-to-end metrics with tracing off.
func endToEnd(o options, b bench, c *treaty.Cluster, dir string, begins []workload.Begin, dur time.Duration, st setUpTimes) (result, error) {
	before := snapLayers(c)
	cpu0, steal0 := cpuTime(), stealTime()
	p := drive(workers(b, phaseSeed(o.seed, 1)), begins, nil, dur, 0)
	cpu, steal := cpuTime()-cpu0, stealTime()-steal0
	d := snapLayers(c).counters.sub(before.counters)
	p.reportFailures("measured")
	if p.committed() == 0 {
		return result{}, errors.New("no transaction succeeded")
	}
	rss := peakRSS() // before the audit check's own allocations
	if err := b.gate(d, p.committed()); err != nil {
		return result{}, err
	}
	if err := b.check(c); err != nil {
		return result{}, fmt.Errorf("outputs wrong: %w", err)
	}
	disk, err := dirSize(dir)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("samples: %d successful transactions, %d attempted, %d failed, %.3f s measured, %.2f s of CPU stolen by the hypervisor\n",
		len(p.lats), p.attempted, p.failed, p.elapsed.Seconds(), steal.Seconds())
	// Too noisy run to run to carry a bound; the traced run reports them
	// as core.txn_p99_ms, lsm.disk_mb and core.recovery_s.
	fmt.Printf("ungated: txn_p99_ms %.3f, disk_mb %.3f, recovery_s %.4f\n",
		ms(quantile(p.lats, .99)), float64(disk)/(1<<20), st.recovery.Seconds())
	return result{attempted: p.attempted, failed: p.failed, metrics: []metric{
		{"commit_tps", p.tps(), "1/s"},
		{"txn_p50_ms", ms(quantile(p.lats, .5)), "ms"},
		{"success_ratio", float64(p.committed()) / float64(p.attempted), "ratio"},
		{"cpu_ms_per_txn", ms(cpu) / float64(p.committed()), "ms"},
		{"setup_s", st.setup.Seconds(), "s"},
		{"peak_rss_mb", rss, "MB"},
	}}, nil
}

// traced runs the workload in three phases of a third of dur each — on
// the client path untraced, on the client path with spans and profiles,
// and at the coordinators directly — and derives the per-layer metrics.
func traced(o options, b bench, c *treaty.Cluster, dir string, begins []workload.Begin, dur, recovery time.Duration) (result, error) {
	dur /= 3
	untraced := drive(workers(b, phaseSeed(o.seed, 1)), begins, nil, dur, 0)

	out := filepath.Join(o.work, "trace", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	prof, err := startProfiles(out)
	if err != nil {
		return result{}, err
	}
	base := time.Now()
	logs := make([]*spanLog, clients)
	tbegins := make([]workload.Begin, clients)
	for i := range logs {
		logs[i] = newSpanLog(base, i)
		tbegins[i] = tracedBegin(begins[i], logs[i])
	}
	before := snapLayers(c)
	tr := drive(workers(b, phaseSeed(o.seed, 2)), tbegins, logs, dur, 0)
	after := snapLayers(c)
	if err := prof.stop(); err != nil {
		return result{}, err
	}

	direct := make([]workload.Begin, clients)
	for i := range direct {
		direct[i] = directBegin(c.Node(i % c.Nodes()))
	}
	dp := drive(workers(b, phaseSeed(o.seed, 3)), direct, nil, dur, 0)

	for i, p := range []phase{untraced, tr, dp} {
		p.reportFailures([]string{"untraced", "traced", "direct"}[i])
		if p.committed() == 0 {
			return result{}, errors.New("a phase had no successful transaction")
		}
	}
	d := after.counters.sub(before.counters)
	if err := b.gate(d, tr.committed()); err != nil {
		return result{}, err
	}
	if err := b.check(c); err != nil {
		return result{}, fmt.Errorf("outputs wrong: %w", err)
	}
	get, err := timeEngineGets(c, b, o.seed)
	if err != nil {
		return result{}, err
	}
	disk, err := dirSize(dir)
	if err != nil {
		return result{}, err
	}
	if err := writeSpans(filepath.Join(out, "spans.jsonl"), tr.spans); err != nil {
		return result{}, err
	}
	fmt.Printf("trace: %d spans and cpu/mutex/block profiles in %s\n", len(tr.spans), out)
	fmt.Printf("samples: untraced %d, traced %d, direct %d successful transactions\n",
		len(untraced.lats), len(tr.lats), len(dp.lats))
	return result{
		attempted: untraced.attempted + tr.attempted + dp.attempted,
		failed:    untraced.failed + tr.failed + dp.failed,
		metrics: layerMetrics(layerInputs{
			untraced: untraced, traced: tr, direct: dp,
			d: d, after: after, engineGet: get, disk: disk, recovery: recovery,
		}),
	}, nil
}

// timeEngineGets returns the median time of engineGets reads of
// preloaded keys, each at its owner's engine.
func timeEngineGets(c *treaty.Cluster, b bench, seed int64) (time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	lats := make([]time.Duration, 0, engineGets)
	for i := 0; i < engineGets; i++ {
		key := b.sampleKey(rng)
		db := ownerOf(c, key).DB()
		t0 := time.Now()
		_, _, found, err := db.Get(key, db.LatestSeq())
		lats = append(lats, time.Since(t0))
		if err != nil {
			return 0, fmt.Errorf("engine get %s: %w", key, err)
		}
		if !found {
			return 0, fmt.Errorf("engine get %s: preloaded key not found", key)
		}
	}
	sortDurations(lats)
	return quantile(lats, .5), nil
}

// recoverNode0 crash-stops node 0, restarts it, and returns the time
// until a fresh client commits a write that node 0 owns and reads it
// back.
func recoverNode0(c *treaty.Cluster) (time.Duration, error) {
	var key []byte
	for i := 0; key == nil; i++ {
		if k := []byte(fmt.Sprintf("recovery-probe-%d", i)); ownerOf(c, k) == c.Node(0) {
			key = k
		}
	}
	t0 := time.Now()
	c.CrashNode(0)
	if _, err := c.RestartNode(0); err != nil {
		return 0, err
	}
	cl, err := c.NewClient()
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	for {
		err := probe(cl, key)
		if err == nil {
			return time.Since(t0), nil
		}
		if time.Since(t0) > time.Minute {
			return 0, fmt.Errorf("no commit within a minute: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// probe writes key in one transaction and reads it back in the next.
func probe(cl *treaty.Client, key []byte) error {
	tx, err := cl.BeginTxn()
	if err != nil {
		return err
	}
	if err := tx.TxnPut(key, key); err != nil {
		_ = tx.TxnRollback()
		return err
	}
	if err := tx.TxnCommit(); err != nil {
		return err
	}
	tx, err = cl.BeginTxn()
	if err != nil {
		return err
	}
	v, found, err := tx.TxnGet(key)
	if err != nil {
		_ = tx.TxnRollback()
		return err
	}
	if !found || string(v) != string(key) {
		return errors.New("committed probe write not readable")
	}
	return tx.TxnCommit()
}

// dirSize returns the bytes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the time the hypervisor ran other guests while this host's
// CPUs wanted to run, summed over CPUs (the steal column of /proc/stat).
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// peakRSS is the process's peak resident set in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
